package partition

// Concept-to-code map (Section III.C of the paper and the standard
// multilevel-partitioning literature it builds on):
//
//	spectral partitioning (power iteration,
//	  1e-10 stopping rule)...................... Fiedler, SpectralBisector
//	multiple eigenvectors (drawing/embedding)... FiedlerK, SpectralCoordinates
//	Fiduccia–Mattheyses refinement [27]......... RefineFM, fmState (one per
//	                                             call: an O(n) gain store,
//	                                             move log, gains carried
//	                                             across passes; passes end
//	                                             after a run of cut-raising
//	                                             moves, as Metis's do)
//	greedy graph growing initial partition...... GreedyGrow(Target)
//	multilevel FM pipeline (Table VI)........... FMBisector
//	walk back up the hierarchy (solve on the
//	  coarsest graph, project, refine).......... coarsen.Uncoarsen with a
//	                                             per-pipeline step ("fm",
//	                                             "spectral", "drawing"
//	                                             level spans)
//	Metis / mt-Metis baselines (Table VI)....... NewMetisLike, NewMtMetisLike
//	recursive k-way FM (proportional
//	  targets; every serve partition query)..... KWayFM
//	metrics..................................... EdgeCut, KWayEdgeCut,
//	                                             Imbalance, KWayImbalance
//
// Balance conventions: bisections are reported at the paper's no-imbalance
// setting (|w0 − w1| bounded by the largest vertex weight, which for
// unit-weight inputs means an essentially perfect split); mid-pass FM moves
// may overshoot by one vertex per side (the classic FM criterion); k-way
// targets are proportional, so non-power-of-two k stays balanced.
