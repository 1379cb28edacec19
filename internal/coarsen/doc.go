package coarsen

// Algorithm-to-code map
//
// The paper's pseudocode (conference version and tech report
// DOI 10.26207/mwqw-fb88) corresponds to this package as follows:
//
//	Algorithm 1  (multilevel loop)............... Coarsener.Run
//	Algorithm 2  (sequential HEM)............... HEMSeq.Map
//	Algorithm 3  (sequential HEC)............... HECSeq.Map
//	Algorithm 4  (lock-free parallel HEC)....... HEC.Map
//	Algorithm 5  (pseudoforest HEC3)............ HEC3.Map / hec3FromHeavy
//	Algorithm 6  (vertex-centric construction).. buildVertexCentric,
//	             step 1-2 counting.............. cEst / cnt loops
//	             line 9 one-sided condition..... writeHere
//	             FINDLOC scatter................ merged per-worker histograms
//	             DEDUPWITHWTS (sort)............ dedupSortSegments
//	             DEDUPWITHWTS (hash)............ dedupHashSegments
//	             GRAPHCONSWITHTRANS............. symmetrizeDeduped
//	Algorithm 7  (GOSH, tech report)............ GOSH.Map
//	Algorithm 8  (ACE, tech report)............. ACE.Coarsen (§II's
//	             densification claim)........... TestACEDensifies
//	Algorithm 9  (HEC2, tech report)............ HEC2.Map (reconstruction)
//	Algorithm 10 (parallel HEM, tech report).... HEM.Map / hemMatch
//	Algorithm 11 (leaf matching)................ leafMatch
//	Algorithm 12 (twin matching)................ twinMatch
//	Algorithm 13 (relative matching)............ relativeMatch
//	Algorithm 14 (MIS2)......................... MIS2.Map / mis2States
//	Algorithm 15 (parallel GOSH)................ GOSH.Map
//	Algorithm 16 (GOSH/HEC hybrid).............. GOSHHEC.Map (reconstruction)
//
// The way back up: every multilevel pipeline ends by solving on the
// coarsest graph (or a seed level), then carrying the result through each
// level's mapping and refining it on the finer graph. Uncoarsen is that
// walk, with the pipeline supplying only its solve/refine step and its
// projection; Project is the one gather through a mapping array
// (fine[u] = coarse[m[u]]), which also composes mappings (Flatten,
// ProjectToFine). Traced, the walk opens the "<pipeline>:level i" and
// "<pipeline>:project" spans.
//
// Beyond the paper: AutoConstruct picks among the sort, hash, SpGEMM and
// global-sort builders per level.
//
// The tech-report pseudocode for Algorithms 9 and 16 was not available to
// this reproduction; HEC2 and GOSHHEC are reconstructions from the
// conference text's descriptions, and their deviations are documented on
// the type declarations and measured in EXPERIMENTS.md.
