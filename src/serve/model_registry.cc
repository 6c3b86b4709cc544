#include "serve/model_registry.hh"

#include <bit>

namespace apollo::serve {

ModelInfo
describeEntry(const ModelEntry &entry)
{
    ModelInfo info;
    info.name = entry.name;
    info.quantized = entry.quantized();
    info.proxyCount = entry.proxyCount();
    if (entry.qmodel) {
        info.bits = entry.qmodel->bits;
        info.windowT = entry.windowT;
    }
    return info;
}

Status
ModelRegistry::addFloat(const std::string &name, ApolloModel model)
{
    if (model.proxyIds.empty())
        return Status::invalidArgument("model '", name,
                                       "' has no proxies");
    if (model.weights.size() != model.proxyIds.size())
        return Status::invalidArgument(
            "model '", name, "' weight/proxy arity mismatch");
    auto entry = std::make_shared<ModelEntry>();
    entry->name = name;
    entry->model =
        std::make_shared<const ApolloModel>(std::move(model));
    return insert(std::move(entry));
}

StatusOr<ModelInfo>
ModelRegistry::addQuantizedVariant(const std::string &name,
                                   const std::string &base,
                                   uint32_t bits, uint32_t window_T)
{
    std::shared_ptr<const ModelEntry> base_entry = find(base);
    if (!base_entry)
        return Status::invalidArgument("unknown base model '", base,
                                       "'");
    if (base_entry->quantized())
        return Status::invalidArgument(
            "base model '", base,
            "' is already quantized; derive variants from the float "
            "entry");
    if (window_T == 0 || !std::has_single_bit(window_T))
        return Status::invalidArgument(
            "OPM window T must be a power of two, got ", window_T);
    StatusOr<QuantizedModel> qm =
        tryQuantizeModel(*base_entry->model, bits);
    if (!qm.ok())
        return qm.status();
    auto entry = std::make_shared<ModelEntry>();
    entry->name = name;
    // Share the base float weights; only the fixed-point vector is new.
    entry->model = base_entry->model;
    entry->qmodel =
        std::make_shared<const QuantizedModel>(std::move(*qm));
    entry->windowT = window_T;
    ModelInfo info = describeEntry(*entry);
    if (Status st = insert(std::move(entry)); !st.ok())
        return st;
    return info;
}

std::shared_ptr<const ModelEntry>
ModelRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second;
}

std::vector<ModelInfo>
ModelRegistry::list() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ModelInfo> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(describeEntry(*entry));
    return out;
}

Status
ModelRegistry::insert(std::shared_ptr<const ModelEntry> entry)
{
    if (entry->name.empty())
        return Status::invalidArgument("model name must be non-empty");
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.emplace(entry->name, entry);
    (void)it;
    if (!inserted)
        return Status::invalidArgument("model '", entry->name,
                                       "' is already registered");
    return Status::okStatus();
}

} // namespace apollo::serve
