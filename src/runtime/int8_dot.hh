/**
 * @file
 * The int8 dot-product tile behind MaiccSystem's functional MAC
 * pass.
 *
 * One call computes a tile of up to kTilePixels input patches
 * against up to kTileFilters filters. Every operand is one
 * contiguous run of `len` int8 values, and operands of one kind sit
 * `len` bytes apart (the patch buffer of a pixel tile, and the MRSC
 * weight tensor used in place). Three bodies compute the same
 * integers:
 *
 *  - `dotTileAmx` runs the tile on the AMX tile engine, one 64-byte
 *    K chunk per `_tile_dpbssd`. A is the filter rows, loaded in
 *    place with stride `len` (no weight copy). B is the chunk of the
 *    16 patches in the VNNI layout the instruction needs (4-byte
 *    groups of K interleaved across pixels), built by an AVX-512
 *    16 x 16 transpose of 4-byte elements into a 1 KB stack buffer.
 *    The `[filter][pixel]` result is transposed the same way into the
 *    `[pixel][filter]` layout below. The K tail (`len % 64`) of A is
 *    copied into a zero-padded stack buffer with masked loads, so no
 *    load reads past the last filter or patch. It needs AVX-512F/BW,
 *    which every AMX CPU has.
 *  - `dotTileAvx2` loops a 4-pixel x 2-filter register tile over the
 *    tile. It sign-extends 16-byte chunks to int16
 *    (`_mm256_cvtepi8_epi16`) and multiply-adds them
 *    (`_mm256_madd_epi16`) into eight int32 accumulators, with a
 *    scalar loop for the `len % 16` tail.
 *  - `dotTilePortable` is the same register tiling in plain C++.
 *
 * Integer addition is associative and |sum| <= len * 128^2 fits in
 * int32 for every layer shape, so all three bodies equal the scalar
 * reference bit for bit. `dotTile()` picks the body once, from the
 * CPU and the OS alone: AMX, else AVX2, else portable.
 *
 * Tile state is per thread. `dotTileAmx` loads its tile
 * configuration on entry and releases the tiles before it returns,
 * so no tile state outlives a call and any thread may call it.
 */

#ifndef MAICC_RUNTIME_INT8_DOT_HH
#define MAICC_RUNTIME_INT8_DOT_HH

#include <cstddef>
#include <cstdint>

namespace maicc
{

constexpr int kTilePixels = 16;
constexpr int kTileFilters = 16;

/**
 * Set `sums[p * kTileFilters + f]` to
 * Σ_{k < len} px[p * len + k] * flt[f * len + k] for every
 * p < n_px (1..kTilePixels) and f < n_flt (1..kTileFilters). The
 * other entries of @p sums are not written. Reads no byte outside
 * px[0, n_px * len) and flt[0, n_flt * len).
 */
using DotTileFn = void (*)(const int8_t *px, int n_px,
                           const int8_t *flt, int n_flt, size_t len,
                           int32_t *sums);

/** The portable body; runs on every CPU. */
void dotTilePortable(const int8_t *px, int n_px, const int8_t *flt,
                     int n_flt, size_t len, int32_t *sums);

/**
 * The AVX2 body, or nullptr where it is not compiled (non-x86).
 * Call it only when cpuHasAvx2() holds.
 */
extern const DotTileFn dotTileAvx2;

/**
 * The AMX body, or nullptr where it is not compiled (non-x86-64).
 * Call it only when cpuHasAmx() holds.
 */
extern const DotTileFn dotTileAmx;

/** True when this CPU (and OS) can run dotTileAvx2. */
bool cpuHasAvx2();

/**
 * True when this CPU has AMX-TILE, AMX-INT8, AVX-512F and AVX-512BW
 * and the OS granted this process the tile data state (one
 * arch_prctl request, made on the first call).
 */
bool cpuHasAmx();

/** The body for this CPU: AMX if it can run, else AVX2, else portable. */
DotTileFn dotTile();

} // namespace maicc

#endif // MAICC_RUNTIME_INT8_DOT_HH
