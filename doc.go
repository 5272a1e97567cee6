// Package repro is a Go reproduction of "Proportionality in Spatial
// Keyword Search" (Kalamatianos, Fakas, Mamoulis — SIGMOD 2021).
//
// The library selects, from the ranked result set S of a spatial keyword
// query, a subset R of k places that maximises a holistic score trading
// relevance against contextual and spatial proportionality. See README.md
// for the architecture, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
//
// Packages:
//
//	internal/geo      — planar geometry and Ptolemy's spatial diversity
//	internal/textctx  — contextual sets; baseline / msJh / MinHash Jaccard engines (figure harness)
//	internal/pairs    — symmetric pairwise score cache
//	internal/grid     — squared and radial grids with precomputed tables
//	internal/core     — Step 1 as one fused row pass (Eq. 2–18), IAdU, ABP, baselines, exact solver
//	internal/invindex — inverted keyword index
//	internal/irtree   — IR-tree (R-tree + per-node inverted files) retrieval
//	internal/rdf       — RDF-style graph store and spatial object summaries
//	internal/dataset   — synthetic DBpedia/Yago2-like corpora, workloads, CSV loader
//	internal/metrics   — selection-quality diagnostics
//	internal/usereval  — simulated user-study evaluator panel
//	internal/roadnet   — road-network distance extension (future work), fed to Step 1 via core.SpatialCustom
//	internal/bench     — experiment harness regenerating the paper's figures
package repro
