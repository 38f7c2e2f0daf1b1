#include "core/conv_kernel.hh"

#include "common/logging.hh"
#include "mem/address_map.hh"
#include "rv32/encoding.hh"
#include "sram/transpose.hh"

namespace maicc
{

using namespace rv32;

namespace
{

/** Compute slice (1..7) and row base of filter vector (f, r, s). */
struct FilterSlot
{
    unsigned slice;
    unsigned row;
};

FilterSlot
filterSlot(const ConvNodeWorkload &w, unsigned f, unsigned r,
           unsigned s)
{
    unsigned fv = (f * w.R + r) * w.S + s;
    unsigned slice = 1 + fv % 7;
    unsigned slot = fv / 7;
    maicc_assert(slot < w.vectorsPerSlice());
    return {slice, w.nBits + w.nBits * slot};
}

} // namespace

unsigned
convPsumOffset(const ConvNodeWorkload &w, unsigned f, unsigned ox,
               unsigned oy)
{
    return convPsumBase + ((f * w.outH() + ox) * w.outW() + oy) * 4;
}

unsigned
convOutOffset(const ConvNodeWorkload &w, unsigned f, unsigned ox,
              unsigned oy)
{
    return convOutBase + (f * w.outH() + ox) * w.outW() + oy;
}

Addr
convRowAddr(const ConvNodeWorkload &w, unsigned x, unsigned y,
            unsigned bit)
{
    return amap::dramBase + ((x * w.W + y) * w.nBits + bit) * 64;
}

rv32::Program
buildConvNodeProgram(const ConvNodeWorkload &w)
{
    maicc_assert(w.C == 256);
    maicc_assert(w.numFilters <= w.maxFilters());
    maicc_assert(convPsumOffset(w, w.numFilters - 1, w.outH() - 1,
                                w.outW() - 1) < convOutBase);
    maicc_assert(convOutOffset(w, w.numFilters - 1, w.outH() - 1,
                               w.outW() - 1) < amap::dmemSize);

    Assembler a;

    // One MAC result register per compute slice (a1..a7) lets the
    // accumulation of slice s's round-q result be deferred until
    // just before slice s's round-q+1 MAC issues -- the software
    // pipelining Algorithm 1 describes ("process the ofmap pixels
    // completed in the previous iteration to avoid data dependency
    // between CMem and the pipeline").
    auto res_reg = [](unsigned sl) {
        return static_cast<Reg>(a1 + sl - 1); // x11..x17
    };
    // Host-side bookkeeping: the pending psum offset per slice.
    int pending[8];

    for (unsigned x = 0; x < w.H; ++x) {
        for (unsigned y = 0; y < w.W; ++y) {
            // Fetch the transposed ifmap vector into slice 0,
            // rows 0..n-1 (stand-in for delivery by the previous
            // node / data-collection core).
            a.li(t0, static_cast<int32_t>(convRowAddr(w, x, y, 0)));
            for (unsigned bit = 0; bit < w.nBits; ++bit) {
                a.li(t1, static_cast<int32_t>(cmemDesc(0, bit)));
                a.loadRowRC(t0, t1);
                a.addi(t0, t0, 64);
            }

            // Broadcast the vector to all compute slices (the
            // moves serialize on slice 0; the compute slices then
            // run their MACs concurrently -- 7N + Q*N^2 in §4.1).
            for (unsigned sl = 1; sl <= 7; ++sl) {
                a.li(t2, static_cast<int32_t>(cmemDesc(sl, 0)));
                a.moveC(zero, t2, w.nBits);
            }

            auto drain = [&](unsigned sl) {
                if (pending[sl] < 0)
                    return;
                a.lw(t5, zero, pending[sl]);
                a.add(t5, t5, res_reg(sl));
                a.sw(t5, zero, pending[sl]);
                pending[sl] = -1;
            };

            // Round-robin MAC waves across slices; each slice's
            // previous result is accumulated right before its next
            // MAC so the dependency is ~one slice-round old.
            for (unsigned sl = 0; sl < 8; ++sl)
                pending[sl] = -1;
            unsigned total_fv = w.numFilters * w.R * w.S;
            for (unsigned q = 0; q < w.vectorsPerSlice(); ++q) {
                for (unsigned sl = 1; sl <= 7; ++sl) {
                    unsigned fv = q * 7 + (sl - 1);
                    drain(sl);
                    if (fv >= total_fv)
                        continue;
                    unsigned f = fv / (w.R * w.S);
                    unsigned r = (fv / w.S) % w.R;
                    unsigned s = fv % w.S;
                    // Margin pixels contribute to no valid ofmap
                    // position for this (r, s).
                    if (x < r || y < s)
                        continue;
                    unsigned ox = x - r, oy = y - s;
                    if (ox >= w.outH() || oy >= w.outW())
                        continue;
                    FilterSlot slot = filterSlot(w, f, r, s);
                    maicc_assert(slot.slice == sl);
                    a.li(t2, static_cast<int32_t>(cmemDesc(sl, 0)));
                    a.li(t3, static_cast<int32_t>(
                                 cmemDesc(sl, slot.row)));
                    a.maccC(res_reg(sl), t2, t3, w.nBits);
                    pending[sl] =
                        static_cast<int>(convPsumOffset(w, f, ox,
                                                        oy));
                }
            }
            for (unsigned sl = 1; sl <= 7; ++sl)
                drain(sl);

            // Algorithm 1 lines 15-17: auxiliary functions for the
            // ofmap pixel whose accumulation just completed.
            if (x >= w.R - 1 && y >= w.S - 1) {
                unsigned ox = x - (w.R - 1);
                unsigned oy = y - (w.S - 1);
                for (unsigned f = 0; f < w.numFilters; ++f) {
                    a.lw(t5, zero, convPsumOffset(w, f, ox, oy));
                    if (w.relu) {
                        // Branchless ReLU: mask by ~(sign bits).
                        a.srai(t1, t5, 31);
                        a.xori(t1, t1, -1);
                        a.andr(t5, t5, t1);
                    }
                    a.srai(t5, t5, w.shift);
                    a.sb(t5, zero, convOutOffset(w, f, ox, oy));
                }
            }
        }
    }
    a.ecall();
    return a.finish();
}

void
stageConvNode(const ConvNodeWorkload &w, CMem &cmem, RowStore &rows,
              const std::vector<int8_t> &ifmap,
              const std::vector<int8_t> &filters)
{
    maicc_assert(ifmap.size() == size_t(w.H) * w.W * w.C);
    maicc_assert(filters.size()
                 == size_t(w.numFilters) * w.R * w.S * w.C);

    // Filter-load phase: transposed filter vectors into the
    // compute slices.
    std::vector<int32_t> vec(w.C);
    for (unsigned f = 0; f < w.numFilters; ++f) {
        for (unsigned r = 0; r < w.R; ++r) {
            for (unsigned s = 0; s < w.S; ++s) {
                FilterSlot slot = filterSlot(w, f, r, s);
                for (unsigned c = 0; c < w.C; ++c)
                    vec[c] = filters[((f * w.R + r) * w.S + s) * w.C
                                     + c];
                cmem.pokeVector(slot.slice, slot.row, w.nBits, vec);
            }
        }
    }

    // Transposed ifmap rows, one Row256 per (x, y, bit).
    for (unsigned x = 0; x < w.H; ++x) {
        for (unsigned y = 0; y < w.W; ++y) {
            std::span<const int8_t> pixel(
                ifmap.data() + size_t(x * w.W + y) * w.C, w.C);
            Row256 planes[32];
            setBitPlanes(planes, w.nBits, 0, pixel);
            for (unsigned bit = 0; bit < w.nBits; ++bit)
                rows.storeRow(convRowAddr(w, x, y, bit), planes[bit]);
        }
    }
}

std::vector<int8_t>
referenceConvNode(const ConvNodeWorkload &w,
                  const std::vector<int8_t> &ifmap,
                  const std::vector<int8_t> &filters)
{
    std::vector<int8_t> out(w.numFilters * w.outH() * w.outW());
    for (unsigned f = 0; f < w.numFilters; ++f) {
        for (unsigned ox = 0; ox < w.outH(); ++ox) {
            for (unsigned oy = 0; oy < w.outW(); ++oy) {
                int32_t psum = 0;
                for (unsigned r = 0; r < w.R; ++r) {
                    for (unsigned s = 0; s < w.S; ++s) {
                        for (unsigned c = 0; c < w.C; ++c) {
                            int32_t iv = ifmap[((ox + r) * w.W
                                                + (oy + s)) * w.C
                                               + c];
                            int32_t fv =
                                filters[((f * w.R + r) * w.S + s)
                                        * w.C + c];
                            psum += iv * fv;
                        }
                    }
                }
                if (w.relu && psum < 0)
                    psum = 0;
                psum >>= w.shift;
                out[(f * w.outH() + ox) * w.outW() + oy] =
                    static_cast<int8_t>(psum);
            }
        }
    }
    return out;
}

} // namespace maicc
