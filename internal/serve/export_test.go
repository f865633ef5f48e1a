package serve

// OffsetCursor mints the offset cursor (kind 1) that servers without
// position cursors minted on every route, so tests can present one to a
// route that now mints position cursors.
func OffsetCursor(key []byte, fp, gen, offset uint64) string {
	return encodeToken(key, token{kind: kindCursor, fp: fp, gen: gen, offset: offset})
}

// EdgeLabelDB is edgeLabelDB for the external tests.
var EdgeLabelDB = edgeLabelDB
