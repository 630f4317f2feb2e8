#include "cell.hh"

#include "workload/catalog.hh"

namespace charon::harness
{

Cell
cell(std::string workload, sim::PlatformKind platform,
     std::uint64_t heap_bytes, std::uint64_t seed, int gc_threads,
     int num_cubes)
{
    Cell c;
    c.key.workload = std::move(workload);
    c.key.heapBytes = heap_bytes;
    c.key.seed = seed;
    c.key.gcThreads = gc_threads;
    c.key.numCubes = num_cubes;
    c.platform = platform;
    c.config = sim::SystemConfig::table2();
    c.label = c.key.workload + " on " + sim::platformName(platform);
    return c;
}

std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names;
    for (const auto &w : workload::workloadCatalog())
        names.push_back(w.name);
    return names;
}

std::uint64_t
familyHeapBytes(const std::string &workload,
                gc::CollectorModel collector)
{
    if (collector == gc::CollectorModel::Rc
        || (collector == gc::CollectorModel::G1 && workload == "ALS"))
        return workload::findWorkload(workload).heapBytes * 2;
    return 0;
}

std::vector<Cell>
familyCells(const std::vector<std::string> &workloads,
            std::span<const sim::PlatformKind> platforms)
{
    std::vector<Cell> cells;
    for (const auto &name : workloads) {
        for (gc::CollectorModel kind : gc::kCollectorModels) {
            for (auto platform : platforms) {
                Cell c = cell(name, platform, familyHeapBytes(name, kind));
                c.key.collector = kind;
                c.label = name + " (" + gc::collectorToken(kind)
                          + ") on " + sim::platformName(platform);
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

} // namespace charon::harness
