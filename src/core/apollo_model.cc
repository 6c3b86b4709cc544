#include "core/apollo_model.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "util/logging.hh"

namespace apollo {

double
ApolloModel::sumAbsWeights() const
{
    double acc = 0.0;
    for (float w : weights)
        acc += std::abs(w);
    return acc;
}

std::vector<float>
ApolloModel::predictFull(const BitColumnMatrix &X) const
{
    std::vector<float> out(X.rows());
    sumColumns(X, ColumnLayout::Full, static_cast<float>(intercept), out)
        .orFatal();
    return out;
}

std::vector<float>
ApolloModel::predictProxies(const BitColumnMatrix &Xq) const
{
    std::vector<float> out(Xq.rows());
    sumColumns(Xq, ColumnLayout::Proxies, static_cast<float>(intercept),
               out)
        .orFatal();
    return out;
}

Status
ApolloModel::sumColumns(const BitColumnMatrix &X, ColumnLayout layout,
                        float start, std::span<float> out) const
{
    APOLLO_REQUIRE(proxyIds.size() == weights.size(),
                   "model arity mismatch");
    APOLLO_REQUIRE(out.size() >= X.rows(), "output buffer too small");
    const bool full = layout == ColumnLayout::Full;
    if (!full && X.cols() != proxyIds.size())
        return Status::invalidArgument("proxy matrix has ", X.cols(),
                                       " columns, model has ",
                                       proxyIds.size(), " proxies");
    if (full)
        for (uint32_t id : proxyIds)
            if (id >= X.cols())
                return Status::outOfRange("proxy id ", id,
                                          " is outside the ", X.cols(),
                                          "-column matrix");
    std::fill(out.begin(), out.begin() + X.rows(), start);
    for (size_t q = 0; q < proxyIds.size(); ++q)
        if (weights[q] != 0.0f)
            X.axpyColumn(full ? proxyIds[q] : q, weights[q], out.data());
    return Status::okStatus();
}

void
ApolloModel::save(std::ostream &os) const
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "apollo-model 1\n";
    os << designName << "\n";
    os << proxyIds.size() << " " << intercept << "\n";
    for (size_t q = 0; q < proxyIds.size(); ++q)
        os << proxyIds[q] << " " << weights[q] << "\n";
}

ApolloModel
ApolloModel::load(std::istream &is)
{
    std::string magic;
    int version = 0;
    is >> magic >> version;
    APOLLO_REQUIRE(magic == "apollo-model" && version == 1,
                   "not an apollo model file");
    ApolloModel model;
    is >> model.designName;
    size_t q = 0;
    is >> q >> model.intercept;
    model.proxyIds.resize(q);
    model.weights.resize(q);
    for (size_t i = 0; i < q; ++i)
        is >> model.proxyIds[i] >> model.weights[i];
    APOLLO_REQUIRE(static_cast<bool>(is), "truncated model file");
    return model;
}

} // namespace apollo
