#include "trace/decoded_trace.hh"

#include <algorithm>

#include "trace/fetch_stream.hh"
#include "trace/trace_io.hh"

namespace ghrp::trace
{

namespace
{

/**
 * Shared decode loop: @p read_record(i) yields record i of @p n. The
 * loop mirrors the front-end's walker path exactly — including the
 * fetch-buffer coalescing rule, whose state (the last fetched block)
 * evolves deterministically from the visited-block sequence and can
 * therefore be resolved at decode time.
 */
template <typename ReadRecord>
DecodedTrace
decodeImpl(Addr entry_pc, std::uint64_t n, std::uint32_t block_bytes,
           std::uint32_t inst_bytes, ReadRecord &&read_record)
{
    DecodedTrace dec;
    dec.entryPc = entry_pc;
    dec.blockBytes = block_bytes;
    dec.instBytes = inst_bytes;

    dec.brPc.reserve(n);
    dec.brTarget.reserve(n);
    dec.brMeta.reserve(n);
    dec.cumInstructions.reserve(n);
    dec.opBegin.reserve(n + 1);
    dec.opBegin.push_back(0);
    // Fetch runs average a couple of blocks; over-reserving slightly
    // avoids the last doubling for typical traces.
    dec.fetchPc.reserve(n + n / 2);

    FetchStreamWalker walker(entry_pc, block_bytes, inst_bytes);
    Addr last_block = ~Addr{0};

    for (std::uint64_t i = 0; i < n; ++i) {
        const BranchRecord rec = read_record(i);
        // The walker resyncs to rec.pc when the record lies behind the
        // fetch PC; the run then starts at the record itself.
        const Addr run_start = std::min(walker.currentPc(), rec.pc);
        walker.advance(rec, [&](Addr block_addr) {
            if (block_addr == last_block)
                return;
            last_block = block_addr;
            dec.fetchPc.push_back(std::max(run_start, block_addr));
        });

        dec.brPc.push_back(rec.pc);
        dec.brTarget.push_back(rec.target);
        dec.brMeta.push_back(branch_meta::pack(rec.type, rec.taken));
        dec.cumInstructions.push_back(walker.instructionCount());
        dec.opBegin.push_back(dec.fetchPc.size());
    }

    dec.resyncs = walker.resyncs();
    return dec;
}

} // anonymous namespace

std::size_t
DecodedTrace::memoryBytes() const
{
    return brPc.capacity() * sizeof(Addr) +
           brTarget.capacity() * sizeof(Addr) + brMeta.capacity() +
           cumInstructions.capacity() * sizeof(std::uint64_t) +
           opBegin.capacity() * sizeof(std::uint64_t) +
           fetchPc.capacity() * sizeof(Addr) +
           dirPredictedTaken.capacity() + sizeof(*this);
}

DecodedTrace
decodeTrace(const Trace &trace, std::uint32_t block_bytes,
            std::uint32_t inst_bytes)
{
    DecodedTrace dec = decodeImpl(
        trace.entryPc, trace.records.size(), block_bytes, inst_bytes,
        [&](std::uint64_t i) { return trace.records[i]; });
    dec.name = trace.name;
    dec.category = trace.category;
    return dec;
}

DecodedTrace
decodeTrace(const MappedTrace &mapped, std::uint32_t block_bytes,
            std::uint32_t inst_bytes)
{
    DecodedTrace dec = decodeImpl(
        mapped.entryPc(), mapped.numRecords(), block_bytes, inst_bytes,
        [&](std::uint64_t i) { return mapped.record(i); });
    dec.name = mapped.name();
    dec.category = mapped.category();
    return dec;
}

} // namespace ghrp::trace
