#include "core/chunk_store.h"

#include <algorithm>
#include <cassert>

#include "fault/fault_injector.h"

namespace compresso {

namespace {

/** Device-side stream buffer depth in 64 B blocks (the free-prefetch
 *  effect itself is modeled via McTrace::co_fetched + LLC insertion). */
constexpr size_t kStreamBufferBlocks = 4;

} // namespace

ChunkStore::ChunkStore(uint64_t installed_bytes, StatGroup &stats,
                       FaultHooks &fault, bool stream_buffer)
    : alloc_(installed_bytes),
      stats_(stats),
      fault_(fault),
      stream_buffer_(stream_buffer),
      st_data_read_ops_(stats.stat("data_read_ops")),
      st_data_write_ops_(stats.stat("data_write_ops")),
      st_split_extra_ops_(stats.stat("split_extra_ops")),
      st_oom_rescues_(stats.stat("oom_rescues"))
{
    if (stream_buffer)
        st_prefetch_hits_ = &stats.stat("prefetch_hits");
}

bool
ChunkStore::resize(uint8_t &count, ChunkIds &ids, unsigned target,
                   OomRescue rescue)
{
    assert(target <= kChunksPerPage);
    while (count < target) {
        ChunkNum c = alloc_.allocate();
        if (c == kNoChunk && rescue.listener != nullptr &&
            rescue.listener->onMachineOom(rescue.busy)) {
            // Emergency ballooning freed memory: retry once.
            c = alloc_.allocate();
            if (c != kNoChunk) {
                ++st_oom_rescues_;
                CPR_OBS_EVENT(obs_, ObsEvent::kOomRescue, rescue.busy, 1);
            }
        }
        if (c == kNoChunk) {
            ++stats_["machine_oom"];
            return false;
        }
        ids[count++] = uint32_t(c);
    }
    while (count > target) {
        alloc_.release(ids[--count]);
        ids[count] = kNoChunk;
    }
    return true;
}

Addr
ChunkStore::mpaOf(const ChunkIds &ids, uint32_t off) const
{
    Addr chunk = ids[off / kChunkBytes];
    assert(chunk != kNoChunk);
    // Scatter chunks across the physical space (bijective odd-multiplier
    // hash mod 2^26): free-list allocation does not hand out DRAM-row-
    // adjacent chunks in a long-running system, and modeling it as if
    // it did would overstate compressed row-buffer locality.
    Addr scattered =
        ((chunk >> 3) * 0x9e3779b1ULL * 8 + (chunk & 7)) & ((1u << 26) - 1);
    return scattered * kChunkBytes + off % kChunkBytes;
}

void
ChunkStore::storeBytes(const ChunkIds &ids, uint32_t off,
                       const uint8_t *src, size_t len)
{
    while (len > 0) {
        size_t n = std::min(len, kChunkBytes - off % kChunkBytes);
        auto &chunk = alloc_.data(ids[off / kChunkBytes]);
        std::copy(src, src + n, chunk.begin() + off % kChunkBytes);
        src += n;
        off += uint32_t(n);
        len -= n;
    }
}

void
ChunkStore::loadBytes(const ChunkIds &ids, uint32_t off, uint8_t *dst,
                      size_t len) const
{
    while (len > 0) {
        size_t n = std::min(len, kChunkBytes - off % kChunkBytes);
        const auto &chunk = alloc_.data(ids[off / kChunkBytes]);
        auto from = chunk.begin() + off % kChunkBytes;
        std::copy(from, from + n, dst);
        dst += n;
        off += uint32_t(n);
        len -= n;
    }
}

unsigned
ChunkStore::deviceOps(const ChunkIds &ids, uint32_t off, size_t len,
                      bool write, bool critical, McTrace &trace,
                      AttribComp comp)
{
    if (len == 0)
        return 0;
    unsigned first = off / kLineBytes;
    unsigned last = unsigned((off + len - 1) / kLineBytes);
    unsigned issued = 0;
    for (unsigned b = first; b <= last; ++b) {
        Addr block = mpaOf(ids, b * uint32_t(kLineBytes));
        auto buffered =
            std::find(stream_buf_.begin(), stream_buf_.end(), block);
        AttribComp op_comp =
            critical && issued > 0 ? AttribComp::kDeviceExtra : comp;
        if (write) {
            if (buffered != stream_buf_.end())
                stream_buf_.erase(buffered);
            trace.add(block, true, critical, op_comp);
            ++st_data_write_ops_;
            fault_.onWrite(block);
        } else if (critical && stream_buffer_ &&
                   buffered != stream_buf_.end()) {
            ++*st_prefetch_hits_;
            continue;
        } else {
            trace.add(block, false, critical, op_comp);
            ++st_data_read_ops_;
            // Only demand-critical reads are architecturally exposed
            // to stored faults; background traffic rewrites blocks.
            if (critical)
                fault_.onCriticalRead(block);
            if (critical && stream_buffer_) {
                stream_buf_.push_back(block);
                if (stream_buf_.size() > kStreamBufferBlocks)
                    stream_buf_.pop_front();
            }
        }
        ++issued;
    }
    return last - first + 1;
}

unsigned
ChunkStore::lineAccess(const ChunkIds &ids, PageNum page, uint32_t off,
                       size_t len, bool write, McTrace &trace,
                       uint64_t &split_lines)
{
    unsigned blocks = deviceOps(ids, off, len, write, !write, trace);
    if (blocks > 1) {
        ++split_lines;
        st_split_extra_ops_ += blocks - 1;
        CPR_OBS_EVENT(obs_, ObsEvent::kSplitAccess, page, blocks);
    }
    return blocks;
}

void
ChunkStore::poisonLine(Addr ospa_line, const ChunkIds &ids, uint32_t off,
                       size_t len, McTrace &trace)
{
    fault_.poisonLine(ospa_line);
    ++stats_["fault_lines_poisoned"];
    CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, pageOf(ospa_line),
                  uint32_t(FaultRung::kLinePoison));
    size_t before = trace.ops.size();
    deviceOps(ids, off, len, false, false, trace,
              AttribComp::kFaultRecovery); // retry read
    deviceOps(ids, off, len, true, false, trace,
              AttribComp::kFaultRecovery); // poison rewrite
    uint64_t ops = trace.ops.size() - before;
    fault_.injector()->noteRecoveryOps(ops);
    stats_["fault_recovery_ops"] += ops;
}

} // namespace compresso
