/**
 * @file
 * Out-of-line pieces of the public umbrella API (src/apollo.hh). Also
 * serves as the compile check that the umbrella header is
 * self-contained.
 */

#include "apollo.hh"

#include "obs/metrics.hh"
#include "util/popcnt_kernels.hh"

namespace apollo {

const char *
apolloVersion()
{
    // Bumped when the public entry-point surface changes shape.
    // 1.1: the serving layer (apollo::serve) joined the umbrella.
    return "1.1";
}

std::vector<float>
Inference::predict(const BitColumnMatrix &Xq) const
{
    if (!qmodel_)
        return model_.predictProxies(Xq);
    APOLLO_REQUIRE(Xq.cols() == qmodel_->proxyCount(),
                   "proxy matrix arity mismatch");

    // The whole matrix is one phase-0 chunk through the stream
    // engine's pipeline. No thread pool: parallelFor is not
    // re-entrant, and callers may already be inside one.
    StreamPipeline pipe(*qmodel_, windowT_);
    ChunkSums sums;
    pipe.computeSums(Xq, Xq.rows(), sums);
    VectorSink sink;
    pipe.emit(sums, sink).orFatal();
    std::vector<float> out = sink.takeValues();

    const size_t n = Xq.rows();
    APOLLO_COUNT("apollo.opm.simulations", 1);
    APOLLO_COUNT("apollo.opm.cycles", n);
    APOLLO_COUNT("apollo.opm.windows", out.size());
    if (APOLLO_OBS_ON() && n > 0) {
        const popkernels::Kernels &k = popkernels::kernels();
        uint64_t ones = 0;
        for (size_t q = 0; q < Xq.cols(); ++q)
            ones += k.countWords(Xq.colWords(q), Xq.wordsPerCol());
        APOLLO_OBSERVE("apollo.opm.toggle_density",
                       static_cast<double>(ones) /
                           (static_cast<double>(n) *
                            static_cast<double>(Xq.cols())),
                       ::apollo::obs::ratioBounds());
    }
    return out;
}

} // namespace apollo
