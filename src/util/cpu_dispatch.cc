#include "util/cpu_dispatch.hh"

#include <cstdlib>
#include <string_view>

namespace apollo::cpu {

namespace {

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && v[0] != '\0' && v[0] != '0';
}

Features
probeHost()
{
    Features f;
#if defined(__x86_64__) && defined(__GNUC__)
    // Kernel tables resolve during static initialization, possibly
    // before libgcc's own CPU-model constructor has run.
    __builtin_cpu_init();
    f.popcnt = __builtin_cpu_supports("popcnt");
    f.avx2 = __builtin_cpu_supports("avx2");
    f.avx512 = __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
    f.avx512Vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq");
#endif
    return f;
}

Features
applyOverrides(Features f)
{
    if (envSet("APOLLO_NO_AVX512"))
        f.avx512 = f.avx512Vpopcntdq = false;
    if (envSet("APOLLO_NO_AVX2"))
        f.avx2 = false;
    return f;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
      case Isa::Avx512:
        return "avx512";
      default:
        return "unknown";
    }
}

const Features &
hostFeatures()
{
    static const Features host = probeHost();
    return host;
}

const Features &
enabledFeatures()
{
    static const Features enabled = applyOverrides(hostFeatures());
    return enabled;
}

std::optional<Isa>
popcountOverride()
{
    const char *env = std::getenv("APOLLO_POPCNT");
    if (!env)
        return std::nullopt;
    const std::string_view v(env);
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
        if (v == isaName(isa))
            return isa;
    return std::nullopt;
}

} // namespace apollo::cpu
