#ifndef IMGRN_CORE_IMGRN_H_
#define IMGRN_CORE_IMGRN_H_

/// Umbrella header: the public API of the IM-GRN library.
///
/// Layering (bottom to top):
///   common/    - status, logging, RNG, bit vectors
///   matrix/    - gene feature matrices, correlation, linear algebra
///   prob/      - Monte Carlo edge probabilities, Markov bounds (Lemmas 2-4)
///   graph/     - probabilistic graphs, subgraph isomorphism, Eq. 3
///   storage/   - pages, buffer pool (I/O accounting)
///   rtree/     - R*-tree with OR-merged payloads
///   inference/ - IM-GRN / Correlation / pCorr measures, ROC, GRN inference
///   embed/     - pivot embedding + cost-model pivot selection (Section 4)
///   index/     - the (2d+1)-dim IM-GRN index (Section 5.1)
///   query/     - Fig.-4 query processor, Baseline, LinearScan
///   datagen/   - Section-6.1 synthetic generator, DREAM5-like surrogates
///   core/      - ImGrnEngine facade

#include "common/logging.h"
#include "common/random.h"
#include "core/engine.h"
#include "datagen/dream5_like.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "index/snapshot.h"
#include "inference/grn_inference.h"
#include "inference/measures.h"
#include "inference/mutual_information.h"
#include "inference/roc.h"
#include "matrix/matrix_io.h"
#include "query/baseline.h"
#include "query/linear_scan.h"

#endif  // IMGRN_CORE_IMGRN_H_
