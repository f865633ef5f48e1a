// Package repro is a from-scratch Go reproduction of Arnaud Durand,
// "Fine-Grained Complexity Analysis of Queries: From Decision to Counting
// and Enumeration", PODS 2020.
//
// The implementation lives under internal/: see internal/plan for the
// query pipeline (classification along the paper's dichotomies and task
// dispatch), and DESIGN.md for the full system inventory and the
// per-experiment index. The experiments that regenerate the measured
// complexity shapes recorded in EXPERIMENTS.md, one per paper artifact, are
// declared once, in the registry of internal/experiments: cmd/qbench prints
// it as tables and bench_test.go runs it as benchmarks.
package repro
