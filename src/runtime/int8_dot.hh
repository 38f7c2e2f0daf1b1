/**
 * @file
 * The block kernel behind MaiccSystem's functional MAC pass.
 *
 * One call finishes a block of up to kBlockPixels output pixels for
 * every filter of a layer: the int8 dot product of each patch with
 * each filter, then the aux functions of the output pixel (residual
 * add, ReLU, requantize). Every operand is one contiguous run of
 * `len` int8 values, and operands of one kind sit `len` bytes apart
 * (the gathered patches of a block, and the MRSC weight tensor used
 * in place, never copied). Outputs and residuals are `[pixel][filter]`
 * rows, as in the HWC output tensor. Three bodies compute the same
 * bytes:
 *
 *  - `dotBlockAmx` runs on the AMX tile engine, one 64-byte K chunk
 *    per `_tile_dpbssd`. It loads its tile configuration once per
 *    call and packs the block's patches once into the VNNI layout the
 *    instruction needs (4-byte groups of K interleaved across the 16
 *    pixels of a pixel tile), by an AVX-512 16 x 16 transpose of
 *    4-byte elements. Then, for each group of 16 filters, four
 *    accumulator tiles hold up to 64 pixels, so one filter-chunk tile
 *    load (A, in place with stride `len`) feeds up to four pixel
 *    tiles. A chunk that would read past the last filter (the K tail
 *    `len % 64`, or a group of fewer than 16 filters) is copied into
 *    a zero-padded stack buffer with masked loads instead. The
 *    `[filter][pixel]` accumulators are transposed back, and the
 *    residual add, ReLU, shift and saturation happen in zmm
 *    registers; `vpmovsdb` saturates exactly as `requantize`'s clamp
 *    does. It needs AVX-512F/BW, which every AMX CPU has.
 *  - `dotBlockAvx2` loops a 4-pixel x 2-filter register tile over the
 *    block. It sign-extends 16-byte chunks to int16
 *    (`_mm256_cvtepi8_epi16`) and multiply-adds them
 *    (`_mm256_madd_epi16`) into eight int32 accumulators, with a
 *    scalar loop for the `len % 16` tail, and then calls the scalar
 *    `requantize`.
 *  - `dotBlockPortable` is the same register tiling in plain C++.
 *
 * Integer addition is associative and |sum| <= len * 128^2 fits in
 * int32 for every layer shape, so all three bodies equal the scalar
 * reference bit for bit. `dotBlock()` picks the body once, from the
 * CPU and the OS alone: AMX, else AVX2, else portable.
 *
 * Tile state is per thread. `dotBlockAmx` loads its tile
 * configuration on entry and releases the tiles before it returns,
 * so no tile state outlives a call and any thread may call it.
 */

#ifndef MAICC_RUNTIME_INT8_DOT_HH
#define MAICC_RUNTIME_INT8_DOT_HH

#include <cstddef>
#include <cstdint>

namespace maicc
{

/** Output pixels of one block: four 16-pixel AMX tiles. */
constexpr int kBlockPixels = 64;

/**
 * For every p < n_px (1..kBlockPixels) and f < n_flt (>= 1), with
 * sum = Σ_{k < len} px[p * len + k] * flt[f * len + k] and
 * o = p * n_flt + f, set
 * `out[o] = requantize(sum + (res[o] << shift), shift, relu)`, where
 * a null @p res adds nothing. Reads no byte outside
 * px[0, n_px * len), flt[0, n_flt * len) and res[0, n_px * n_flt),
 * and writes no byte outside out[0, n_px * n_flt).
 */
using DotBlockFn = void (*)(const int8_t *px, int n_px,
                            const int8_t *flt, int n_flt, size_t len,
                            const int8_t *res, unsigned shift,
                            bool relu, int8_t *out);

/** The portable body; runs on every CPU. */
void dotBlockPortable(const int8_t *px, int n_px, const int8_t *flt,
                      int n_flt, size_t len, const int8_t *res,
                      unsigned shift, bool relu, int8_t *out);

/**
 * The AVX2 body, or nullptr where it is not compiled (non-x86).
 * Call it only when cpuHasAvx2() holds.
 */
extern const DotBlockFn dotBlockAvx2;

/**
 * The AMX body, or nullptr where it is not compiled (non-x86-64).
 * Call it only when cpuHasAmx() holds.
 */
extern const DotBlockFn dotBlockAmx;

/** True when this CPU (and OS) can run dotBlockAvx2. */
bool cpuHasAvx2();

/**
 * True when this CPU has AMX-TILE, AMX-INT8, AVX-512F and AVX-512BW
 * and the OS granted this process the tile data state (one
 * arch_prctl request, made on the first call).
 */
bool cpuHasAmx();

/** The body for this CPU: AMX if it can run, else AVX2, else portable. */
DotBlockFn dotBlock();

} // namespace maicc

#endif // MAICC_RUNTIME_INT8_DOT_HH
