/**
 * @file
 * The int8 dot-product tile behind MaiccSystem's functional MAC pass.
 *
 * A tile is up to kTilePixels input patches against up to
 * kTileFilters filters; every operand is one contiguous run of `len`
 * int8 values, and operands of one kind sit `len` bytes apart (the
 * patch buffer of an output row, and the MRSC weight tensor used in
 * place). Two bodies compute the same integers:
 *
 *  - `dotTileAvx2` sign-extends 16-byte chunks to int16
 *    (`_mm256_cvtepi8_epi16`) and multiply-adds them
 *    (`_mm256_madd_epi16`) into eight int32 accumulators, with a
 *    scalar loop for the `len % 16` tail;
 *  - `dotTilePortable` is the same tiling in plain C++.
 *
 * Edge tiles (fewer pixels or filters) run the full tile with the
 * last in-range operand repeated and store only the in-range sums.
 * Integer addition is associative and |sum| <= len * 128^2 fits in
 * int32 for every layer shape, so both bodies equal the scalar
 * reference bit for bit. `dotTile()` picks the body once, from the
 * CPU alone.
 */

#ifndef MAICC_RUNTIME_INT8_DOT_HH
#define MAICC_RUNTIME_INT8_DOT_HH

#include <cstddef>
#include <cstdint>

namespace maicc
{

constexpr int kTilePixels = 4;
constexpr int kTileFilters = 2;

/**
 * Fill `sums[p * kTileFilters + f]` with
 * Σ_{k < len} px[p * len + k] * flt[f * len + k] for every
 * p < n_px (1..kTilePixels) and f < n_flt (1..kTileFilters); the
 * other entries of @p sums are left unspecified.
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

/** True when this CPU (and OS) can run dotTileAvx2. */
bool cpuHasAvx2();

/** The body for this CPU: dotTileAvx2 if it can run, else portable. */
DotTileFn dotTile();

} // namespace maicc

#endif // MAICC_RUNTIME_INT8_DOT_HH
