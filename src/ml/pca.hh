/**
 * @file
 * Randomized PCA over toggle matrices, for the PRIMAL-PCA baseline
 * [79]: project all M signals onto k principal directions, then fit a
 * linear model on the components. Like the paper notes, this is *not*
 * proxy selection — inference still needs every signal's toggle bit,
 * which is why the PCA baseline is a horizontal line in Fig. 10 and is
 * computationally infeasible as an OPM.
 *
 * Method: randomized range finder (Halko et al.) with one power
 * iteration: Y = X G, orthonormalize, Y = X (X^T Y), orthonormalize;
 * components V = X^T Q column-orthonormalized. Features z = V^T x.
 */

#ifndef APOLLO_ML_PCA_HH
#define APOLLO_ML_PCA_HH

#include <cstdint>
#include <vector>

#include "util/bitvec.hh"

namespace apollo {

/** Fitted PCA projection. */
struct PcaModel
{
    size_t inputDims = 0;  ///< M
    size_t components = 0; ///< k
    /** Column means (centering vector), length M. */
    std::vector<float> meanVec;
    /** Projection matrix V, row-major M x k. */
    std::vector<float> v;

    /** Project every row of @p X; returns row-major rows x k. */
    std::vector<float> projectAll(const BitColumnMatrix &X) const;

    /** Precomputed V^T mean (set by fitPca). */
    std::vector<float> meanDotV_;
};

/** Fit randomized PCA with @p k components on the columns of X. */
PcaModel fitPca(const BitColumnMatrix &X, size_t k,
                uint64_t seed = 0x9caULL);

} // namespace apollo

#endif // APOLLO_ML_PCA_HH
