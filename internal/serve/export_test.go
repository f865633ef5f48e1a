package serve

// EdgeLabelDB is edgeLabelDB for the external tests.
var EdgeLabelDB = edgeLabelDB

// CliqueRelation is cliqueRelation for the external tests.
var CliqueRelation = cliqueRelation
