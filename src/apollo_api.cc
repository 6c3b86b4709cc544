/**
 * @file
 * Out-of-line pieces of the public umbrella API (src/apollo.hh). Also
 * serves as the compile check that the umbrella header is
 * self-contained.
 */

#include "apollo.hh"

namespace apollo {

const char *
apolloVersion()
{
    // Bumped when the public entry-point surface changes shape.
    // 1.1: the serving layer (apollo::serve) joined the umbrella.
    // 1.2: one Inference class (flow/stream_engine.hh) for batch and
    //      streaming inference; DesignTimeFlows is the Fig. 7 entry.
    return "1.2";
}

} // namespace apollo
