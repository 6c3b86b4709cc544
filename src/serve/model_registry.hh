/**
 * @file
 * The serving-layer model registry: named, immutable, shareable model
 * entries. A long-running power-introspection service loads several
 * trained models (float design-time estimators plus quantized OPM
 * variants at various bit widths) once, and every session created
 * against a name shares the entry through a shared_ptr — weights are
 * never copied per session, and an entry stays alive for as long as
 * any session still streams against it even if it is replaced in the
 * registry.
 */

#ifndef APOLLO_SERVE_MODEL_REGISTRY_HH
#define APOLLO_SERVE_MODEL_REGISTRY_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/apollo_model.hh"
#include "opm/quantize.hh"
#include "util/status.hh"

namespace apollo::serve {

/** One immutable registry entry (float, or float + quantized). */
struct ModelEntry
{
    std::string name;
    /** Always set; the float weights (shared, never copied). */
    std::shared_ptr<const ApolloModel> model;
    /** Set for quantized entries. */
    std::shared_ptr<const QuantizedModel> qmodel;
    /** OPM measurement window; meaningful when qmodel is set. */
    uint32_t windowT = 0;

    bool quantized() const { return qmodel != nullptr; }
    size_t proxyCount() const { return model->proxyCount(); }
};

/** Wire/ListModels metadata for one entry. */
struct ModelInfo
{
    std::string name;
    bool quantized = false;
    size_t proxyCount = 0;
    /** Weight bit width (0 for float entries). */
    uint32_t bits = 0;
    /** OPM window T (0 for float entries). */
    uint32_t windowT = 0;
};

/**
 * Thread-safe name -> entry map. Registration returns InvalidArgument
 * for duplicate names or malformed models; lookups hand out shared
 * const entries.
 */
class ModelRegistry
{
  public:
    /** Register a float design-time estimator under @p name. */
    Status addFloat(const std::string &name, ApolloModel model);

    /**
     * Derive a @p bits-bit quantized variant from the float entry
     * @p base and register it under @p name. The variant shares the
     * base entry's float model (no weight copy); only the small
     * fixed-point weight vector is new.
     */
    StatusOr<ModelInfo> addQuantizedVariant(const std::string &name,
                                            const std::string &base,
                                            uint32_t bits,
                                            uint32_t window_T);

    /** The entry for @p name, or nullptr when absent. */
    std::shared_ptr<const ModelEntry> find(const std::string &name) const;

    /** Metadata for every entry, sorted by name. */
    std::vector<ModelInfo> list() const;

  private:
    Status insert(std::shared_ptr<const ModelEntry> entry);

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<const ModelEntry>> entries_;
};

/** The ListModels metadata of one entry. */
ModelInfo describeEntry(const ModelEntry &entry);

} // namespace apollo::serve

#endif // APOLLO_SERVE_MODEL_REGISTRY_HH
