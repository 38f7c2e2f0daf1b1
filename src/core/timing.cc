#include "core/timing.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "mem/address_map.hh"
#include "rv32/encoding.hh"

namespace maicc
{

using rv32::Inst;
using rv32::Op;

CoreTimingModel::CoreTimingModel(const rv32::Program &program,
                                 rv32::MemIf &mem, CMem *cm,
                                 rv32::RowPortIf *rows,
                                 const CoreConfig &config)
    : SimComponent("core"), cfg(config), exec(program, mem, cm, rows),
      cmem(cm), regReady(32, 0), regWbDone(32, 0),
      sliceFree(cm ? cm->config().numSlices : 0, 0),
      sliceDataReady(cm ? cm->config().numSlices : 0, 0)
{
    maicc_assert(config.wbPorts >= 1);
}

void
CoreTimingModel::reset()
{
    std::fill(regReady.begin(), regReady.end(), Cycles(0));
    std::fill(regWbDone.begin(), regWbDone.end(), Cycles(0));
    std::fill(sliceFree.begin(), sliceFree.end(), Cycles(0));
    std::fill(sliceDataReady.begin(), sliceDataReady.end(),
              Cycles(0));
    wbBookings.clear();
    wbHead = 0;
    cmemDispatch.clear();
    lastCMemDispatch = 0;
    divFree = 0;
    memPortFree = 0;
    fetchReady = 0;
    runStats = CoreRunStats{};
    SimComponent::reset();
}

void
CoreTimingModel::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("cycles", runStats.cycles);
    publish("insts", runStats.insts);
    publish("cmemInsts", runStats.cmemInsts);
    publish("localMemOps", runStats.localMemOps);
    publish("remoteOps", runStats.remoteOps);
    publish("stallRaw", runStats.stallRaw);
    publish("stallWaw", runStats.stallWaw);
    publish("stallStructural", runStats.stallStructural);
    publish("stallQueueFull", runStats.stallQueueFull);
    publish("cmemBusyCycles", runStats.cmemBusyCycles);
    publish("branchPenaltyCycles", runStats.branchPenaltyCycles);
}

Cycles
CoreTimingModel::bookWbPort(Cycles ready)
{
    // The bookings are sparse — any cycle without an entry is
    // free — so walk the sorted entries from `ready` and stop at
    // the first gap or not-fully-booked entry: the first cycle
    // >= ready with bookings < wbPorts, found without probing the
    // fully-booked cycles in between one at a time.
    Cycles slot = ready;
    auto it = std::lower_bound(
        wbBookings.begin() + wbHead, wbBookings.end(), ready,
        [](const WbBooking &b, Cycles c) { return b.cycle < c; });
    while (it != wbBookings.end() && it->cycle == slot
           && it->count >= cfg.wbPorts) {
        ++slot;
        ++it;
    }
    if (it != wbBookings.end() && it->cycle == slot) {
        ++it->count;
        return slot;
    }
    wbBookings.insert(it, {slot, 1});
    return slot;
}

CoreRunStats
CoreTimingModel::run(uint64_t max_insts)
{
    ScopedHostTimer host_timer(*this);
    runStats = CoreRunStats{};
    Cycles end_time = 0;

    while (!exec.halted()) {
        if (runStats.insts >= max_insts)
            maicc_fatal("timing run exceeded %llu instructions",
                        (unsigned long long)max_insts);

        const Inst &in = exec.current();
        Addr pc_before = exec.pc();
        const bool tracing = trace::kEnabled && sink != nullptr;

        // Bookings older than the in-order issue front can never be
        // contended again; prune to bound memory on long runs.
        while (wbHead < wbBookings.size()
               && wbBookings[wbHead].cycle + 4 < fetchReady)
            ++wbHead;
        if (wbHead * 2 >= wbBookings.size()) {
            wbBookings.erase(wbBookings.begin(),
                             wbBookings.begin() + wbHead);
            wbHead = 0;
        }

        // Operand values before architectural execution: with
        // in-order issue these are exactly the values the hardware
        // reads.
        uint32_t rs1_val = exec.reg(in.rs1);
        uint32_t rs2_val = exec.reg(in.rs2);

        Cycles fetch = fetchReady;
        Cycles issue = fetchReady;

        // RAW interlock via the scoreboard / bypass network.
        Cycles raw = issue;
        if (in.readsRs1())
            raw = std::max(raw, regReady[in.rs1]);
        if (in.readsRs2())
            raw = std::max(raw, regReady[in.rs2]);
        Cycles stall_raw = raw - issue;
        runStats.stallRaw += stall_raw;
        issue = raw;

        // WAW: destination must have retired its previous write.
        Cycles stall_waw = 0;
        if (in.writesRd()) {
            Cycles waw = std::max(issue, regWbDone[in.rd]);
            stall_waw = waw - issue;
            runStats.stallWaw += stall_waw;
            issue = waw;
        }

        Cycles stall_queue = 0;
        Cycles stall_struct = 0;

        bool cmem_op = rv32::isCMemOp(in.op);
        Cycles dispatch = 0;
        unsigned slice_a = 0, slice_b = 0;
        bool uses_slice_b = false;

        // Per-instruction outcome, captured for the commit trace.
        Cycles done_t = 0;  ///< result/data completion
        Cycles wb_t = 0;    ///< write-back slot (done_t if no rd)
        Cycles rdy_t = 0;   ///< bypass-ready time written for rd
        Cycles array_busy = 0;

        if (cmem_op) {
            maicc_assert(cmem);
            switch (in.op) {
              case Op::MAC_C:
                slice_a = rv32::descSlice(rs1_val);
                break;
              case Op::MOVE_C:
                slice_a = rv32::descSlice(rs1_val);
                slice_b = rv32::descSlice(rs2_val);
                uses_slice_b = true;
                break;
              case Op::SETROW_C:
              case Op::SHIFTROW_C:
                slice_a = rv32::descSlice(rs1_val);
                break;
              case Op::LOADROW_RC:
              case Op::STOREROW_RC:
                slice_a = rv32::descSlice(rs2_val);
                break;
              case Op::SETMASK_C:
                slice_a = rs1_val & 0x7;
                break;
              default:
                maicc_panic("unhandled CMem op");
            }

            Cycles busy = 0;
            switch (in.op) {
              case Op::MAC_C: busy = CMem::maccCycles(in.cmemN); break;
              case Op::MOVE_C: busy = CMem::moveCycles(in.cmemN); break;
              case Op::SETROW_C: busy = CMem::setRowCycles(); break;
              case Op::SHIFTROW_C:
                busy = CMem::shiftRowCycles();
                break;
              case Op::LOADROW_RC:
              case Op::STOREROW_RC:
                busy = CMem::rowXferCycles();
                break;
              case Op::SETMASK_C: busy = 1; break;
              default: break;
            }

            // SetMask.C is a 1-cycle CSR write (Table 2): it orders
            // with the slice's array ops at dispatch, but occupies
            // no array bank and is not CMem array busy time.
            bool array_op = in.op != Op::SETMASK_C;

            // Earliest the target slice(s) can accept the op.
            // LoadRow.RC only needs the slice port; compute ops
            // additionally wait for any in-flight remote rows.
            Cycles slice_ready =
                std::max(lastCMemDispatch, sliceFree[slice_a]);
            if (in.op != Op::LOADROW_RC) {
                slice_ready = std::max(slice_ready,
                                       sliceDataReady[slice_a]);
            }
            if (uses_slice_b) {
                slice_ready =
                    std::max({slice_ready, sliceFree[slice_b],
                              sliceDataReady[slice_b]});
            }

            if (cfg.cmemQueueSize == 0) {
                // No issue queue: the instruction blocks in ID
                // until the CMem can start it.
                Cycles d = std::max(issue, slice_ready);
                stall_queue = d - issue;
                runStats.stallQueueFull += stall_queue;
                issue = d;
                dispatch = d;
            } else {
                // FIFO queue (bypassed when empty): issue blocks
                // only when the queue is full, i.e. the oldest of
                // the last queueSize CMem instructions has not yet
                // dispatched.
                if (cmemDispatch.size() >= cfg.cmemQueueSize) {
                    Cycles q = std::max(
                        issue,
                        cmemDispatch[cmemDispatch.size()
                                     - cfg.cmemQueueSize]);
                    stall_queue = q - issue;
                    runStats.stallQueueFull += stall_queue;
                    issue = q;
                }
                dispatch = std::max(issue, slice_ready);
            }

            cmemDispatch.push_back(dispatch);
            if (cmemDispatch.size() > cfg.cmemQueueSize + 1)
                cmemDispatch.pop_front();
            lastCMemDispatch = dispatch;

            if (array_op) {
                sliceFree[slice_a] = dispatch + busy;
                if (uses_slice_b)
                    sliceFree[slice_b] = dispatch + busy;
                runStats.cmemBusyCycles += busy;
                array_busy = busy;
            }
            ++runStats.cmemInsts;

            Cycles done = dispatch + busy;
            if (in.op == Op::LOADROW_RC) {
                // Remote round trip before the row lands; fetches
                // pipeline (the slice port frees immediately).
                done += cfg.remoteLatency;
                sliceDataReady[slice_a] =
                    std::max(sliceDataReady[slice_a], done);
            }
            done_t = done;

            if (in.writesRd()) {
                // CMem results return through the register file.
                Cycles wb = bookWbPort(done);
                regReady[in.rd] = wb;
                regWbDone[in.rd] = wb;
                rdy_t = wb;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                // Pipeline-side occupancy only: an in-flight
                // LoadRow.RC row fill is accounted for by the
                // sliceDataReady fold in the epilogue.
                wb_t = done;
                end_time = std::max(end_time, dispatch + busy);
            }
        } else if (rv32::isLoadOp(in.op) || rv32::isStoreOp(in.op)
                   || rv32::isAmoOp(in.op)) {
            Cycles s = std::max(issue, memPortFree);
            stall_struct = s - issue;
            runStats.stallStructural += stall_struct;
            issue = s;
            memPortFree = issue + 1;
            dispatch = issue;

            Addr ea = rs1_val
                + (rv32::isAmoOp(in.op) || in.op == Op::LR_W
                           || in.op == Op::SC_W
                       ? 0
                       : in.imm);
            bool local = amap::isLocalDmem(ea)
                || amap::isLocalSlice0(ea);
            Cycles lat = local ? cfg.loadLatency : cfg.remoteLatency;
            if (local)
                ++runStats.localMemOps;
            else
                ++runStats.remoteOps;

            if (in.writesRd()) {
                Cycles done = issue + lat;
                regReady[in.rd] = done; // bypass at fill
                Cycles wb = bookWbPort(done);
                regWbDone[in.rd] = wb;
                done_t = done;
                rdy_t = done;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                // Stores are fire-and-forget (posted writes).
                done_t = issue + 1;
                wb_t = done_t;
                end_time = std::max(end_time, issue + 1);
            }
        } else if (in.op == Op::DIV || in.op == Op::DIVU
                   || in.op == Op::REM || in.op == Op::REMU) {
            Cycles s = std::max(issue, divFree);
            stall_struct = s - issue;
            runStats.stallStructural += stall_struct;
            issue = s;
            dispatch = issue;
            Cycles done = issue + cfg.divLatency;
            divFree = done; // unpipelined
            regReady[in.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[in.rd] = wb;
            done_t = done;
            rdy_t = done;
            wb_t = wb;
            end_time = std::max(end_time, wb + 1);
        } else if (in.op == Op::MUL || in.op == Op::MULH
                   || in.op == Op::MULHSU || in.op == Op::MULHU) {
            dispatch = issue;
            Cycles done = issue + cfg.mulLatency;
            regReady[in.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[in.rd] = wb;
            done_t = done;
            rdy_t = done;
            wb_t = wb;
            end_time = std::max(end_time, wb + 1);
        } else {
            // Single-cycle ALU / control.
            dispatch = issue;
            Cycles done = issue + 1;
            done_t = done;
            wb_t = done;
            if (in.writesRd()) {
                regReady[in.rd] = done; // full bypass
                Cycles wb = bookWbPort(done);
                regWbDone[in.rd] = wb;
                rdy_t = done;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                end_time = std::max(end_time, done);
            }
        }

        // Architectural execution and fetch redirect.
        exec.step();
        bool taken = rv32::isControlOp(in.op)
            && exec.pc() != pc_before + 4;
        fetchReady = issue + 1;
        if (taken) {
            fetchReady += cfg.branchPenalty;
            runStats.branchPenaltyCycles += cfg.branchPenalty;
        }
        end_time = std::max(end_time, fetchReady);

        if (tracing) {
            trace::InstRecord rec;
            rec.seq = runStats.insts;
            rec.pc = pc_before;
            rec.op = static_cast<uint16_t>(in.op);
            rec.rd = in.rd;
            rec.rs1 = in.rs1;
            rec.rs2 = in.rs2;
            rec.writesRd = in.writesRd();
            rec.readsRs1 = in.readsRs1();
            rec.readsRs2 = in.readsRs2();
            rec.fetch = fetch;
            rec.issue = issue;
            rec.dispatch = cmem_op ? dispatch : issue;
            rec.busy = array_busy;
            rec.done = done_t;
            rec.wb = wb_t;
            rec.regReadyAt = rdy_t;
            rec.stallRaw = stall_raw;
            rec.stallWaw = stall_waw;
            rec.stallQueue = stall_queue;
            rec.stallStructural = stall_struct;
            rec.cmem = cmem_op;
            rec.sliceA = static_cast<uint8_t>(slice_a);
            rec.sliceB = static_cast<uint8_t>(slice_b);
            rec.usesSliceA = array_busy > 0;
            rec.usesSliceB = uses_slice_b && array_busy > 0;
            sink->insts.push_back(rec);
        }

        ++runStats.insts;
    }

    // The program has drained from the pipeline; in-flight CMem
    // array operations and remote row fills (sliceDataReady) may
    // still be outstanding and bound the run time.
    for (Cycles t : sliceFree)
        end_time = std::max(end_time, t);
    for (Cycles t : sliceDataReady)
        end_time = std::max(end_time, t);
    runStats.cycles = end_time;
    return runStats;
}

} // namespace maicc
