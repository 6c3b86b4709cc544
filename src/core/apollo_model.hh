/**
 * @file
 * ApolloModel: the per-cycle linear power model of Eq. (1) —
 *   p[i] = intercept + sum_j w_j * x_j[i]
 * over Q selected proxy signals. The same structure serves the
 * design-time estimator (float inference over toggle traces) and, after
 * quantization, the runtime OPM (src/opm).
 */

#ifndef APOLLO_CORE_APOLLO_MODEL_HH
#define APOLLO_CORE_APOLLO_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** Where ApolloModel::sumColumns finds proxy q's bits. */
enum class ColumnLayout
{
    Proxies, ///< column q of a proxy-only matrix
    Full,    ///< column proxyIds[q] of a full M-signal matrix
};

/** The fitted per-cycle (or per-tau-interval) linear power model. */
struct ApolloModel
{
    /** Signal ids of the Q selected power proxies (dataset columns). */
    std::vector<uint32_t> proxyIds;
    /** One weight per proxy. */
    std::vector<float> weights;
    double intercept = 0.0;
    /** Name of the design this model was trained for. */
    std::string designName;

    size_t proxyCount() const { return proxyIds.size(); }

    /** sum_j |w_j| (Fig. 13 diagnostic). */
    double sumAbsWeights() const;

    /**
     * Predict per-cycle power over a *full* feature matrix (columns are
     * all M signals; only proxy columns are read).
     */
    std::vector<float> predictFull(const BitColumnMatrix &X) const;

    /**
     * Predict per-cycle power over a proxy-only matrix whose column q
     * corresponds to proxyIds[q] (the emulator-assisted layout).
     */
    std::vector<float> predictProxies(const BitColumnMatrix &Xq) const;

    /**
     * The float column kernel every float inference path runs (batch,
     * Eq. (9) windows, stream and serve): out[i] = start + sum over q
     * of w_q x_q[i] for rows [0, X.rows()), the float additions in
     * ascending q with zero weights skipped. @p start is the intercept
     * for per-cycle power, 0 for the intercept-free sums a
     * WindowAverager averages. Per output element the additions do not
     * depend on how rows are chunked, so a chunked stream equals the
     * batch call bit for bit.
     *
     * Data errors return a Status: InvalidArgument when a Proxies
     * matrix has other than proxyCount() columns, OutOfRange naming the
     * id when a Full matrix lacks column proxyIds[q]. Entries of @p out
     * past X.rows() are untouched; a shorter @p out is fatal.
     */
    Status sumColumns(const BitColumnMatrix &X, ColumnLayout layout,
                      float start, std::span<float> out) const;

    /** Serialize / parse a small text format. */
    void save(std::ostream &os) const;
    static ApolloModel load(std::istream &is);
};

} // namespace apollo

#endif // APOLLO_CORE_APOLLO_MODEL_HH
