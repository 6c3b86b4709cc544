#include "activity/toggle_columns.hh"

#include <cstring>

#include "util/hash_kernels.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace apollo {

ToggleColumnGenerator::ToggleColumnGenerator(const ActivityEngine &engine)
    : engine_(engine)
{}

void
ToggleColumnGenerator::bind(std::span<const ActivityFrame> frames)
{
    frames_ = frames;
    n_ = frames.size();
    words_ = (n_ + 63) / 64;
    cycle0_ = n_ ? frames[0].cycle : 0;

    contiguousCycles_ = true;
    cycles_.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
        cycles_[i] = frames[i].cycle;
        if (cycles_[i] != cycle0_ + i)
            contiguousCycles_ = false;
    }

    enabledMask_.assign(numUnits * words_, 0);
    actU_.resize(numUnits * n_);
    dataU_.resize(numUnits * n_);
    for (size_t u = 0; u < numUnits; ++u) {
        uint64_t *mask = enabledMask_.data() + u * words_;
        float *act = actU_.data() + u * n_;
        float *data = dataU_.data() + u * n_;
        for (size_t i = 0; i < n_; ++i) {
            act[i] = frames[i].activity[u];
            data[i] = frames[i].dataToggle[u];
            if (frames[i].clockEnabled[u])
                mask[i >> 6] |= 1ULL << (i & 63);
        }
    }

    draws_.resize(n_);
    busMasks_.clear();
}

void
ToggleColumnGenerator::drawColumn(uint64_t seed)
{
    if (contiguousCycles_)
        hashkernels::unitDraws(seed, cycle0_, n_, draws_.data());
    else
        hashkernels::unitDrawsAt(seed, cycles_.data(), n_,
                                 draws_.data());
}

const uint64_t *
ToggleColumnGenerator::busEventMask(const Signal &sig)
{
    const auto u = static_cast<size_t>(sig.unit);
    const uint64_t key =
        (static_cast<uint64_t>(sig.busId) << 16) |
        (static_cast<uint64_t>(u) << 8) | sig.latency;
    auto it = busMasks_.find(key);
    if (it != busMasks_.end())
        return it->second.data();

    const Bus &bus =
        engine_.netlist().bus(static_cast<size_t>(sig.busId));
    std::vector<uint64_t> mask(words_, 0);
    drawColumn(engine_.busDrawSeed(sig.busId));
    const float *act = actU_.data() + u * n_;
    const size_t lat = sig.latency;
    for (size_t i = 0; i < n_; ++i) {
        const size_t src = i < lat ? 0 : i - lat;
        const float p_event = ActivityEngine::busEventThreshold(
            bus.eventSensitivity, act[src]);
        if (draws_[i] < p_event)
            mask[i >> 6] |= 1ULL << (i & 63);
    }
    return busMasks_.emplace(key, std::move(mask))
        .first->second.data();
}

void
ToggleColumnGenerator::fillColumn(uint32_t sig_id, uint64_t *out)
{
    APOLLO_ASSERT(n_ > 0, "bind() first");

    const Signal &sig = engine_.netlist().signal(sig_id);
    const auto u = static_cast<size_t>(sig.unit);
    const uint64_t *en = enabledMask_.data() + u * words_;
    std::memset(out, 0, words_ * sizeof(uint64_t));

    switch (sig.kind) {
      case SignalKind::ClockEnable: {
        // toggle_i = en_i XOR en_{i-1}, with the pre-segment state
        // defined as enabled: pure word arithmetic, no hashing.
        uint64_t carry = 1;
        for (size_t w = 0; w < words_; ++w) {
            const uint64_t prev = (en[w] << 1) | carry;
            carry = en[w] >> 63;
            out[w] = en[w] ^ prev;
        }
        maskTailWords(out, words_, n_);
        return;
      }

      case SignalKind::GatedClock: {
        drawColumn(engine_.signalDrawSeed(sig_id));
        const float *act = actU_.data() + u * n_;
        for (size_t i = 0; i < n_; ++i) {
            const bool t = act[i] >= 0.999f ||
                draws_[i] < ActivityEngine::gatedClockThreshold(act[i]);
            out[i >> 6] |= static_cast<uint64_t>(t) << (i & 63);
        }
        break;
      }

      case SignalKind::BusBit: {
        const uint64_t *ev = busEventMask(sig);
        drawColumn(engine_.signalDrawSeed(sig_id));
        const float *data = dataU_.data() + u * n_;
        const size_t lat = sig.latency;
        for (size_t i = 0; i < n_; ++i) {
            const size_t src = i < lat ? 0 : i - lat;
            const bool t =
                draws_[i] < ActivityEngine::busBitThreshold(data[src]);
            out[i >> 6] |= static_cast<uint64_t>(t) << (i & 63);
        }
        for (size_t w = 0; w < words_; ++w)
            out[w] &= ev[w];
        break;
      }

      default: { // FlipFlop / CombWire
        drawColumn(engine_.signalDrawSeed(sig_id));
        const float *act = actU_.data() + u * n_;
        const float *data = dataU_.data() + u * n_;
        const size_t lat = sig.latency;
        for (size_t i = 0; i < n_; ++i) {
            const size_t src = i < lat ? 0 : i - lat;
            const float p = ActivityEngine::toggleProbability(
                sig, act[src], data[src]);
            out[i >> 6] |=
                static_cast<uint64_t>(draws_[i] < p) << (i & 63);
        }
        break;
      }
    }

    for (size_t w = 0; w < words_; ++w)
        out[w] &= en[w];
}

} // namespace apollo
