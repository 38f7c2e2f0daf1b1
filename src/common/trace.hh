/**
 * @file
 * Structured commit-trace layer for the cycle-level models.
 *
 * The timing models (CoreTimingModel, MeshNoc) optionally emit one
 * flat record per architectural commit event into a TraceSink:
 *
 *  - InstRecord: one per retired instruction — pc, opcode, the
 *    issue/dispatch/completion/write-back cycles, the per-class
 *    stall attribution, and the CMem slice(s) the op occupied;
 *  - PacketRecord / PacketEjectRecord: one per NoC packet at
 *    injection and at tail ejection;
 *  - FlitRecord: one per committed flit move — either an injection
 *    into a source router's local queue (inDir == kDirInject) or a
 *    granted switch traversal (ejection when outDir == kDirLocal).
 *
 * The records are deliberately redundant with the models' internal
 * state: src/check/invariants.hh re-derives pipeline and network
 * legality from the trace alone, so a modelling bug shows up as an
 * inconsistency *between* records instead of silently shifting the
 * end-to-end cycle count.
 *
 * Tracing costs one pointer test per event when disabled at run
 * time (the models hold a null TraceSink*), and can be compiled out
 * entirely with -DMAICC_NO_TRACE (cmake -DMAICC_TRACE=OFF), which
 * turns every emission site into dead code.
 *
 * Traces dump to JSONL (one record per line) and load back, so a
 * failing run can be re-checked offline with the check_trace tool
 * (see DESIGN.md "Commit traces & invariant checking").
 */

#ifndef MAICC_COMMON_TRACE_HH
#define MAICC_COMMON_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace maicc
{
namespace trace
{

/** True unless tracing is compiled out with -DMAICC_NO_TRACE. */
#ifdef MAICC_NO_TRACE
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/**
 * Router port indices as used in FlitRecord. Must match MeshNoc's
 * internal numbering (static_asserted in noc.cc). kDirInject is a
 * trace-only pseudo-port marking a flit entering the network from
 * the node's inject stage.
 */
enum Dir : int8_t
{
    kDirLocal = 0,
    kDirEast = 1,
    kDirWest = 2,
    kDirSouth = 3,
    kDirNorth = 4,
    kDirInject = 5,
};

/** One retired instruction of a CoreTimingModel run. */
struct InstRecord
{
    uint64_t seq = 0;   ///< dynamic instruction number, 0-based
    Addr pc = 0;
    uint16_t op = 0;    ///< rv32::Op numeric value
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    bool writesRd = false;
    bool readsRs1 = false;
    bool readsRs2 = false;

    Cycles fetch = 0;    ///< earliest issue (pre-interlock)
    Cycles issue = 0;    ///< post-interlock issue cycle
    Cycles dispatch = 0; ///< CMem dispatch (== issue otherwise)
    Cycles busy = 0;     ///< CMem array occupancy cycles (0 if none)
    Cycles done = 0;     ///< result/data completion cycle
    Cycles wb = 0;       ///< write-back slot (== done if no rd)
    Cycles regReadyAt = 0; ///< bypass-ready time written for rd

    Cycles stallRaw = 0;
    Cycles stallWaw = 0;
    Cycles stallQueue = 0;
    Cycles stallStructural = 0;

    bool cmem = false;       ///< CMem-extension instruction
    uint8_t sliceA = 0;
    uint8_t sliceB = 0;
    bool usesSliceA = false; ///< occupies slice A's array
    bool usesSliceB = false; ///< occupies slice B's array (Move.C)
};

/** One packet handed to MeshNoc::inject(). */
struct PacketRecord
{
    uint64_t id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    uint32_t sizeFlits = 0;
    Cycles inject = 0;
};

/** Tail-flit ejection of a packet at its destination. */
struct PacketEjectRecord
{
    uint64_t id = 0;
    NodeId node = 0;
    Cycles cycle = 0;
};

/**
 * One committed flit event. inDir == kDirInject: the flit entered
 * @c router's local input queue from the inject stage. Otherwise a
 * switch grant moved it out of input port @c inDir towards
 * @c outDir (outDir == kDirLocal: ejected at the destination).
 */
struct FlitRecord
{
    uint64_t packetId = 0;
    NodeId router = 0;
    int8_t inDir = 0;
    int8_t outDir = 0;
    bool head = false;
    bool tail = false;
    Cycles cycle = 0;
};

/** ServingRecord::disposition values. */
enum Disposition : uint8_t
{
    kDispCompleted = 0,
    kDispRejected = 1,
    kDispShed = 2,
    kDispTimedOut = 3,
    kDispPending = 4,
};

/**
 * Final disposition of one serving-tier request (one per offered
 * request of a ServingSimulator / ClusterSimulator run — see
 * runtime/serving.hh appendServingTrace). The request-conservation
 * and request-causality rules in check/invariants.hh re-derive the
 * serving layer's bookkeeping from these records alone.
 */
struct ServingRecord
{
    uint64_t id = 0;        ///< arrival order, 0-based
    uint8_t disposition = kDispCompleted; ///< Disposition value
    unsigned shard = 0;     ///< serving chip (0 on single-chip)
    Cycles arrival = 0;
    Cycles start = 0;       ///< admission cycle (0 if never ran)
    Cycles finish = 0;      ///< completion cycle (0 if never ran)
    unsigned retries = 0;   ///< timeout-driven retries consumed
};

/**
 * Collects records from the models it is attached to. Not
 * thread-safe: a sink belongs to one simulation on one thread.
 */
class TraceSink
{
  public:
    std::vector<InstRecord> insts;
    std::vector<PacketRecord> packets;
    std::vector<PacketEjectRecord> ejects;
    std::vector<FlitRecord> flits;
    std::vector<ServingRecord> serving;

    void
    clear()
    {
        insts.clear();
        packets.clear();
        ejects.clear();
        flits.clear();
        serving.clear();
    }

    bool
    empty() const
    {
        return insts.empty() && packets.empty() && ejects.empty()
            && flits.empty() && serving.empty();
    }

    /** Dump every record as JSONL, one object per line. */
    void writeJsonl(std::ostream &os) const;

    /** Convenience: writeJsonl to @p path. @return success. */
    bool writeJsonlFile(const std::string &path) const;

    /**
     * Parse records previously produced by writeJsonl, appending
     * to this sink. Unknown line types are skipped. @return false
     * on a malformed line.
     */
    bool readJsonl(std::istream &is);

    /** Convenience: readJsonl from @p path. @return success. */
    bool readJsonlFile(const std::string &path);
};

} // namespace trace
} // namespace maicc

#endif // MAICC_COMMON_TRACE_HH
