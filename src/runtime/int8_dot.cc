#include "runtime/int8_dot.hh"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MAICC_HAVE_AVX2_BODY 1
#endif

namespace maicc
{

namespace
{

/** Tile operands; an edge tile repeats its last in-range operand. */
struct TileOperands
{
    const int8_t *px[kTilePixels];
    const int8_t *flt[kTileFilters];

    TileOperands(const int8_t *px_base, int n_px,
                 const int8_t *flt_base, int n_flt, size_t len)
    {
        for (int p = 0; p < kTilePixels; ++p)
            px[p] = px_base + size_t(std::min(p, n_px - 1)) * len;
        for (int f = 0; f < kTileFilters; ++f)
            flt[f] = flt_base + size_t(std::min(f, n_flt - 1)) * len;
    }
};

/** Add the scalar products of [k, len) and store the in-range sums. */
void
finishTile(const TileOperands &t, int n_px, int n_flt, size_t k,
           size_t len, int32_t *acc, int32_t *sums)
{
    for (; k < len; ++k) {
        for (int p = 0; p < kTilePixels; ++p) {
            for (int f = 0; f < kTileFilters; ++f) {
                acc[p * kTileFilters + f] +=
                    int32_t(t.px[p][k]) * t.flt[f][k];
            }
        }
    }
    for (int p = 0; p < n_px; ++p) {
        for (int f = 0; f < n_flt; ++f)
            sums[p * kTileFilters + f] = acc[p * kTileFilters + f];
    }
}

#ifdef MAICC_HAVE_AVX2_BODY

__attribute__((target("avx2"))) inline __m256i
widen16(const int8_t *p)
{
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

__attribute__((target("avx2"))) void
dotTileAvx2Body(const int8_t *px, int n_px, const int8_t *flt,
                int n_flt, size_t len, int32_t *sums)
{
    TileOperands t(px, n_px, flt, n_flt, len);
    // Accumulator sPF holds pixel P against filter F.
    __m256i s00 = _mm256_setzero_si256(), s01 = s00, s10 = s00,
            s11 = s00, s20 = s00, s21 = s00, s30 = s00, s31 = s00;
    size_t k = 0;
    for (; k + 16 <= len; k += 16) {
        __m256i f0 = widen16(t.flt[0] + k);
        __m256i f1 = widen16(t.flt[1] + k);
        __m256i a = widen16(t.px[0] + k);
        s00 = _mm256_add_epi32(s00, _mm256_madd_epi16(a, f0));
        s01 = _mm256_add_epi32(s01, _mm256_madd_epi16(a, f1));
        a = widen16(t.px[1] + k);
        s10 = _mm256_add_epi32(s10, _mm256_madd_epi16(a, f0));
        s11 = _mm256_add_epi32(s11, _mm256_madd_epi16(a, f1));
        a = widen16(t.px[2] + k);
        s20 = _mm256_add_epi32(s20, _mm256_madd_epi16(a, f0));
        s21 = _mm256_add_epi32(s21, _mm256_madd_epi16(a, f1));
        a = widen16(t.px[3] + k);
        s30 = _mm256_add_epi32(s30, _mm256_madd_epi16(a, f0));
        s31 = _mm256_add_epi32(s31, _mm256_madd_epi16(a, f1));
    }
    // Horizontal sums: two hadd levels leave each accumulator's
    // half-sums in both 128-bit lanes, and one cross-lane add
    // finishes all eight in tile order (s00, s01, s10, ..., s31).
    __m256i q0 = _mm256_hadd_epi32(_mm256_hadd_epi32(s00, s01),
                                   _mm256_hadd_epi32(s10, s11));
    __m256i q1 = _mm256_hadd_epi32(_mm256_hadd_epi32(s20, s21),
                                   _mm256_hadd_epi32(s30, s31));
    __m256i total =
        _mm256_add_epi32(_mm256_permute2x128_si256(q0, q1, 0x20),
                         _mm256_permute2x128_si256(q0, q1, 0x31));
    alignas(32) int32_t acc[kTilePixels * kTileFilters];
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc), total);
    // g++ 12 emits no vzeroupper in this target("avx2") function.
    // Left dirty, the upper ymm halves slow every later SSE
    // instruction of the process (measured: the cluster event loop
    // ran 19% slower after one ResNet18 pass).
    _mm256_zeroupper();
    finishTile(t, n_px, n_flt, k, len, acc, sums);
}

#endif // MAICC_HAVE_AVX2_BODY

} // namespace

void
dotTilePortable(const int8_t *px, int n_px, const int8_t *flt,
                int n_flt, size_t len, int32_t *sums)
{
    TileOperands t(px, n_px, flt, n_flt, len);
    int32_t acc[kTilePixels * kTileFilters] = {};
    finishTile(t, n_px, n_flt, 0, len, acc, sums);
}

#ifdef MAICC_HAVE_AVX2_BODY
const DotTileFn dotTileAvx2 = dotTileAvx2Body;

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2");
}
#else
const DotTileFn dotTileAvx2 = nullptr;

bool
cpuHasAvx2()
{
    return false;
}
#endif

DotTileFn
dotTile()
{
    static const DotTileFn chosen =
        cpuHasAvx2() ? dotTileAvx2 : dotTilePortable;
    return chosen;
}

} // namespace maicc
