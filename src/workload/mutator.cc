#include "mutator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::workload
{

using mem::Addr;

int
chooseCubeShift(Addr va_limit, int cubes)
{
    // Smallest shift such that (va_limit >> shift) < cubes covers the
    // span with exactly `cubes` regions (round the span up to a power
    // of two first).
    int span_bits = 1;
    while ((1ull << span_bits) < va_limit)
        ++span_bits;
    return span_bits - mem::log2i(static_cast<std::uint64_t>(cubes));
}

std::uint64_t
findMinimumHeapBytes(const WorkloadParams &params, std::uint64_t seed)
{
    std::uint64_t lo = 8, hi = params.heapBytes >> 20; // MiB
    CHARON_ASSERT(hi > lo, "workload heap too small to search");
    // The default heap must complete (catalog invariant).
    while (lo + 1 < hi) {
        std::uint64_t mid = (lo + hi) / 2;
        Mutator probe(params, mid << 20, seed);
        if (probe.run().oom)
            lo = mid;
        else
            hi = mid;
    }
    return hi << 20;
}

Mutator::Mutator(const WorkloadParams &params, std::uint64_t heap_bytes,
                 std::uint64_t seed, int gc_threads, int num_cubes,
                 gc::CollectorModel model)
    : params_(params),
      heap_(gc::makeHeap(model, heap_bytes, klasses_.table)),
      rng_(seed)
{
    cubeShift_ = chooseCubeShift(heap_->vaLimit(), num_cubes);
    rec_ = std::make_unique<gc::TraceRecorder>(gc_threads, cubeShift_,
                                               num_cubes);
    collector_ = gc::makeCollector(model, *heap_, *rec_);
    tempRing_.reserve(params_.tempRingSlots);
}

heap::ManagedHeap &
Mutator::generationalHeap()
{
    return heap::heapAs<heap::ManagedHeap>(*heap_);
}

Mutator::RootSlot
Mutator::addRoot(Addr obj)
{
    auto &roots = heap_->roots();
    if (!freeSlots_.empty()) {
        RootSlot slot = freeSlots_.back();
        freeSlots_.pop_back();
        roots[slot] = obj;
        return slot;
    }
    roots.push_back(obj);
    return roots.size() - 1;
}

void
Mutator::removeRoot(RootSlot slot)
{
    heap_->roots()[slot] = 0;
    freeSlots_.push_back(slot);
}

Addr
Mutator::rootAt(RootSlot slot) const
{
    return heap_->roots()[slot];
}

void
Mutator::holdTemp(Addr obj)
{
    if (tempRing_.size() < params_.tempRingSlots) {
        tempRing_.push_back(addRoot(obj));
        return;
    }
    RootSlot slot = tempRing_[tempCursor_];
    heap_->roots()[slot] = obj; // previous occupant dies
    tempCursor_ = (tempCursor_ + 1) % params_.tempRingSlots;
}

void
Mutator::holdBigTemp(Addr obj)
{
    if (bigTempRing_.size() < kBigTempRingSize) {
        bigTempRing_.push_back(addRoot(obj));
        return;
    }
    RootSlot slot = bigTempRing_[bigTempCursor_];
    heap_->roots()[slot] = obj;
    bigTempCursor_ = (bigTempCursor_ + 1) % kBigTempRingSize;
}

Addr
Mutator::allocate(heap::KlassId klass, std::uint64_t array_len)
{
    if (oom_)
        return 0;
    std::uint64_t size_words = heap_->sizeWordsFor(klass, array_len);
    result_.mutatorInstructions += static_cast<std::uint64_t>(
        static_cast<double>(size_words) * params_.instrPerWord);

    // Objects the collector's fast path can never hold take its
    // humongous path (for the generational families that is
    // direct-to-Old, as in HotSpot; contiguous regions for G1).
    const bool humongous = collector_->isHumongous(size_words);
    for (int attempt = 0; attempt < 3; ++attempt) {
        Addr obj = humongous
                       ? collector_->allocateHumongous(klass, array_len)
                       : collector_->allocate(klass, array_len);
        if (obj != 0) {
            result_.allocatedBytes += size_words * 8;
            return obj;
        }
        rec_->recordMutator(result_.mutatorInstructions);
        result_.mutatorInstructions = 0;
        switch (collector_->onAllocationFailure(humongous)) {
          case gc::GcOutcome::Minor:
            ++result_.minorGcs;
            break;
          case gc::GcOutcome::Major:
            ++result_.majorGcs;
            break;
          case gc::GcOutcome::OutOfMemory:
            oom_ = true;
            return 0;
        }
    }
    oom_ = true; // three collections could not make room
    return 0;
}

Addr
Mutator::randomGraphNode()
{
    Addr registry = rootAt(registrySlot_);
    if (registry == 0)
        return 0;
    std::uint64_t len = heap_->arrayLength(registry);
    if (len == 0)
        return 0;
    return heap_->refAt(registry, rng_.below(len));
}

void
Mutator::buildGraph()
{
    if (params_.graphNodes <= 0)
        return;
    const std::uint64_t n =
        static_cast<std::uint64_t>(params_.graphNodes);
    Addr registry = allocate(klasses_.table.objArrayId(), n);
    if (registry == 0)
        return;
    registrySlot_ = addRoot(registry);

    // Pass 1: the vertices.
    for (std::uint64_t i = 0; i < n && !oom_; ++i) {
        Addr node = allocate(klasses_.node);
        if (node == 0)
            return;
        // Re-read the registry: a collection may have moved it.
        heap_->storeRef(rootAt(registrySlot_), i, node);
    }
    // Pass 2: adjacency arrays (edges).  Edge targets are
    // locality-biased: real graphs (R-MAT communities) combined with
    // allocation-order layout mean most references point near their
    // holder — the locality behind the paper's ~90% bitmap-cache hit
    // rate during compaction.
    for (std::uint64_t i = 0; i < n && !oom_; ++i) {
        Addr adj = allocate(klasses_.table.objArrayId(),
                            static_cast<std::uint64_t>(
                                params_.graphDegree));
        if (adj == 0)
            return;
        Addr registry = rootAt(registrySlot_);
        Addr node = heap_->refAt(registry, i);
        heap_->storeRef(node, 0, adj);
        for (int d = 0; d < params_.graphDegree; ++d) {
            std::uint64_t target;
            if (rng_.chance(0.85)) {
                // Community edge: within ~+-1024 node indices.
                std::uint64_t span = std::min<std::uint64_t>(n, 2048);
                std::uint64_t lo = i > span / 2 ? i - span / 2 : 0;
                target = std::min(n - 1, lo + rng_.below(span));
            } else {
                target = rng_.below(n); // long-range edge
            }
            heap_->storeRef(adj, static_cast<std::uint64_t>(d),
                            heap_->refAt(registry, target));
        }
        result_.mutatorInstructions +=
            20 * static_cast<std::uint64_t>(params_.graphDegree);
    }
}

void
Mutator::allocSmallTemps()
{
    for (std::uint64_t i = 0; i < params_.smallPerIter && !oom_; ++i) {
        double pick = rng_.uniform();
        Addr obj = 0;
        if (pick < 0.40) {
            obj = allocate(klasses_.node);
        } else if (pick < 0.70) {
            obj = allocate(klasses_.update);
        } else if (pick < 0.85) {
            obj = allocate(klasses_.partMeta);
        } else if (pick < 0.95) {
            obj = allocate(klasses_.table.byteArrayId(),
                           rng_.range(16, 256));
        } else if (pick < 0.975) {
            obj = allocate(klasses_.mirror); // host-only Scan&Push
        } else {
            obj = allocate(klasses_.weakRef); // host-only Scan&Push
        }
        if (obj != 0 && rng_.chance(params_.smallHoldProb))
            holdTemp(obj);
        result_.mutatorInstructions += 25;
    }
}

void
Mutator::serveRequests()
{
    // --- service-style request traffic: each request is a response
    // buffer plus a couple of context objects, all dead as soon as
    // the reply is sent (held only through the temp ring).  A slice
    // of requests refreshes the session cache, the FIFO middle class
    // that promotes and becomes old-generation garbage on eviction.
    const std::uint64_t resp_span =
        params_.requestRespMaxBytes > params_.requestRespMinBytes
            ? params_.requestRespMaxBytes - params_.requestRespMinBytes
            : 0;
    for (std::uint64_t r = 0; r < params_.requestsPerIter && !oom_;
         ++r) {
        std::uint64_t resp_bytes =
            params_.requestRespMinBytes
            + (resp_span ? rng_.below(resp_span + 1) : 0);
        Addr resp = allocate(klasses_.table.byteArrayId(), resp_bytes);
        if (resp == 0)
            return;
        RootSlot pin = addRoot(resp); // pin across the context alloc
        Addr ctx = allocate(klasses_.partMeta);
        if (ctx != 0)
            heap_->storeRef(ctx, 0, rootAt(pin));
        removeRoot(pin);
        if (ctx != 0 && rng_.chance(0.05))
            holdTemp(ctx); // slow request: survives into the next GC
        result_.mutatorInstructions += resp_bytes / 2 + 150;
    }

    // --- session-cache churn (insert then FIFO-evict).
    for (int s = 0; s < params_.sessionsPerIter && !oom_; ++s) {
        Addr payload = allocate(klasses_.table.byteArrayId(),
                                params_.sessionElems);
        if (payload == 0)
            return;
        RootSlot pin = addRoot(payload);
        Addr sess = allocate(klasses_.partMeta);
        if (sess == 0) {
            removeRoot(pin);
            return;
        }
        heap_->storeRef(sess, 0, rootAt(pin));
        removeRoot(pin);
        sessions_.push_back(addRoot(sess));
        result_.mutatorInstructions += params_.sessionElems / 4 + 80;
    }
    for (int e = 0;
         e < params_.sessionEvictPerIter && !sessions_.empty(); ++e) {
        removeRoot(sessions_.front());
        sessions_.pop_front();
    }

    // --- occasional humongous bulk reply / export blob: bypasses
    // the young generation entirely (direct-to-old via the
    // humongous path) and dies within a few iterations.
    if (params_.humongousElems > 0 && !oom_
        && rng_.chance(params_.humongousSpikeProb)) {
        Addr blob = allocate(klasses_.table.doubleArrayId(),
                             params_.humongousElems);
        if (blob != 0) {
            holdBigTemp(blob);
            result_.mutatorInstructions += params_.humongousElems;
        }
    }
}

void
Mutator::runIteration()
{
    // --- GraphChi-style shard/interval buffers: large arrays that
    // live for one interval (copied by about one scavenge each,
    // rarely promoted).
    for (int s = 0; s < params_.shardsPerIter && !oom_; ++s) {
        Addr shard = allocate(klasses_.table.longArrayId(),
                              params_.shardElems);
        if (shard == 0)
            return;
        // One-iteration lifetime: each slot is overwritten by the
        // same-index shard of the next iteration, so shards are
        // usually copied by one scavenge and die before promotion.
        if (shardRing_.size()
            <= static_cast<std::size_t>(s)) {
            shardRing_.push_back(addRoot(shard));
        } else {
            heap_->roots()[shardRing_[static_cast<std::size_t>(s)]] =
                shard;
        }
        result_.mutatorInstructions += params_.shardElems * 6;
    }

    // --- Spark-style partition churn.
    for (int p = 0; p < params_.partitionsPerIter && !oom_; ++p) {
        Addr buf = allocate(klasses_.table.doubleArrayId(),
                            params_.partitionElems);
        if (buf == 0)
            return;
        RootSlot buf_slot = addRoot(buf); // pin across the meta alloc
        Addr meta = allocate(klasses_.partMeta);
        if (meta == 0)
            return;
        heap_->storeRef(meta, 0, rootAt(buf_slot));
        removeRoot(buf_slot);
        // Simulated per-element compute on the fresh partition.
        result_.mutatorInstructions += params_.partitionElems * 2;
        if (rng_.chance(params_.partitionRetainProb))
            cache_.push_back(addRoot(meta));
        else
            holdBigTemp(meta); // task-local buffer: dies young
    }
    for (int e = 0; e < params_.cacheEvictPerIter && !cache_.empty();
         ++e) {
        removeRoot(cache_.front());
        cache_.pop_front();
    }

    // --- GraphChi-style vertex updates.
    for (std::uint64_t u = 0; u < params_.updatesPerIter && !oom_; ++u) {
        Addr upd = allocate(klasses_.update);
        if (upd == 0)
            return;
        Addr node = randomGraphNode();
        if (node != 0) {
            heap_->storeRef(upd, 0, node);
            if (rng_.chance(params_.updateStoreProb)) {
                // Stored updates carry a message payload and get
                // attached to the (typically old) graph: the
                // canonical old-to-young reference that MinorGC's
                // Search finds, and medium-lived data that promotes
                // and later becomes old-generation garbage.
                RootSlot pin = addRoot(upd);
                Addr payload = allocate(klasses_.table.byteArrayId(),
                                        96);
                Addr cur = rootAt(pin);
                removeRoot(pin);
                if (payload != 0 && cur != 0) {
                    heap_->storeRef(cur, 1, payload);
                    Addr n2 = heap_->refAt(cur, 0);
                    if (n2 != 0)
                        heap_->storeRef(n2, 1, cur);
                }
            } else {
                holdTemp(upd);
            }
        } else {
            holdTemp(upd);
        }
        result_.mutatorInstructions += 900; // per-vertex compute
    }

    // --- ALS-style factor matrices: each iteration's factor stays
    // live (and typically gets promoted) until the next one replaces
    // it, leaving old-generation garbage for MajorGC to compact.
    if (params_.factorElems > 0 && !oom_) {
        Addr factor = allocate(klasses_.table.doubleArrayId(),
                               params_.factorElems);
        if (factor != 0) {
            if (factorSlotValid_) {
                heap_->roots()[factorSlot_] = factor;
            } else {
                factorSlot_ = addRoot(factor);
                factorSlotValid_ = true;
            }
            result_.mutatorInstructions += params_.factorElems * 3;
        }
    }

    serveRequests();

    allocSmallTemps();
}

Mutator::RunResult
Mutator::run()
{
    if (params_.matrixElems > 0) {
        Addr matrix = allocate(klasses_.table.doubleArrayId(),
                               params_.matrixElems);
        if (matrix != 0)
            matrixSlot_ = addRoot(matrix);
        result_.mutatorInstructions += params_.matrixElems;
    }
    buildGraph();
    for (int it = 0; it < params_.iterations && !oom_; ++it)
        runIteration();

    rec_->recordMutator(result_.mutatorInstructions);
    rec_->finishRun();
    result_.oom = oom_;
    result_.minorGcs = collector_->minorCount();
    result_.majorGcs = collector_->majorCount();
    result_.markCycles = collector_->markCount();
    std::uint64_t total_instr = 0;
    for (auto n : rec_->run().mutatorInstructions)
        total_instr += n;
    result_.mutatorInstructions = total_instr;
    return result_;
}

} // namespace charon::workload
