// Package repro is a from-scratch Go reproduction of "The Weakest Failure
// Detector for Genuine Atomic Multicast" (Pierre Sutra, PODC 2022, extended
// version).
//
// The public API lives in repro/multicast; the paper's systems live under
// internal/ (see DESIGN.md for the inventory) and the benchmark harness that
// regenerates each of the paper's tables and figures is bench_test.go plus
// cmd/figures.
package repro
