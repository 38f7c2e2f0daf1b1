#include "runtime/int8_dot.hh"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MAICC_HAVE_AVX2_BODY 1
#endif

#if defined(__x86_64__) && defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#define MAICC_HAVE_AMX_BODY 1
#endif

namespace maicc
{

namespace
{

/** The register tile the AVX2 and portable bodies loop over. */
constexpr int kRegPixels = 4;
constexpr int kRegFilters = 2;

/** Register-tile operands; an edge tile repeats its last in-range one. */
struct RegTile
{
    const int8_t *px[kRegPixels];
    const int8_t *flt[kRegFilters];

    RegTile(const int8_t *px_base, int n_px, const int8_t *flt_base,
            int n_flt, size_t len)
    {
        for (int p = 0; p < kRegPixels; ++p)
            px[p] = px_base + size_t(std::min(p, n_px - 1)) * len;
        for (int f = 0; f < kRegFilters; ++f)
            flt[f] = flt_base + size_t(std::min(f, n_flt - 1)) * len;
    }
};

/**
 * Add the scalar products of [k, len) to the register tile's @p acc
 * and store its in-range sums (row stride kTileFilters).
 */
void
finishRegTile(const RegTile &t, int n_px, int n_flt, size_t k,
              size_t len, int32_t *acc, int32_t *sums)
{
    for (; k < len; ++k) {
        for (int p = 0; p < kRegPixels; ++p) {
            for (int f = 0; f < kRegFilters; ++f) {
                acc[p * kRegFilters + f] +=
                    int32_t(t.px[p][k]) * t.flt[f][k];
            }
        }
    }
    for (int p = 0; p < n_px; ++p) {
        for (int f = 0; f < n_flt; ++f)
            sums[p * kTileFilters + f] = acc[p * kRegFilters + f];
    }
}

/** A register-tile body: the in-range sums of one RegTile. */
using RegTileFn = void (*)(const RegTile &t, int n_px, int n_flt,
                           size_t len, int32_t *sums);

/** Run @p reg_tile over the register tiles of one tile. */
void
forEachRegTile(RegTileFn reg_tile, const int8_t *px, int n_px,
               const int8_t *flt, int n_flt, size_t len, int32_t *sums)
{
    for (int p = 0; p < n_px; p += kRegPixels) {
        for (int f = 0; f < n_flt; f += kRegFilters) {
            int n_rp = std::min(kRegPixels, n_px - p);
            int n_rf = std::min(kRegFilters, n_flt - f);
            RegTile t(px + size_t(p) * len, n_rp,
                      flt + size_t(f) * len, n_rf, len);
            reg_tile(t, n_rp, n_rf, len, sums + p * kTileFilters + f);
        }
    }
}

void
regTilePortable(const RegTile &t, int n_px, int n_flt, size_t len,
                int32_t *sums)
{
    int32_t acc[kRegPixels * kRegFilters] = {};
    finishRegTile(t, n_px, n_flt, 0, len, acc, sums);
}

#ifdef MAICC_HAVE_AVX2_BODY

__attribute__((target("avx2"))) inline __m256i
widen16(const int8_t *p)
{
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

__attribute__((target("avx2"))) void
regTileAvx2(const RegTile &t, int n_px, int n_flt, size_t len,
            int32_t *sums)
{
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
    alignas(32) int32_t acc[kRegPixels * kRegFilters];
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc), total);
    // g++ 12 emits no vzeroupper in this target("avx2") function.
    // Left dirty, the upper ymm halves slow every later SSE
    // instruction of the process (measured: the cluster event loop
    // ran 19% slower after one ResNet18 pass).
    _mm256_zeroupper();
    finishRegTile(t, n_px, n_flt, k, len, acc, sums);
}

void
dotTileAvx2Body(const int8_t *px, int n_px, const int8_t *flt,
                int n_flt, size_t len, int32_t *sums)
{
    forEachRegTile(regTileAvx2, px, n_px, flt, n_flt, len, sums);
}

#endif // MAICC_HAVE_AVX2_BODY

#ifdef MAICC_HAVE_AMX_BODY

/** The 64-byte operand of ldtilecfg (palette 1). */
struct alignas(64) TileConfig
{
    uint8_t palette = 1;
    uint8_t startRow = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {};
    uint8_t rows[16] = {};
};

/**
 * A compiler barrier that also treats @p p as read here. The AMX
 * intrinsics of g++ 12 hand their memory operands to inline asm
 * without saying which bytes the instruction reads or writes:
 * `_tile_loadconfig` declares 8 bytes of its 64, and `_tile_loadd`
 * declares none. g++ 12 is then free to drop the `rows`/`colsb`
 * stores of an on-stack config, and has done so, leaving ldtilecfg
 * to raise #GP (SIGSEGV). The same holds for stores into a buffer
 * that only a tile load reads, and a store may not move across a
 * tile load that reads the old contents.
 */
inline void
keepStores(const void *p)
{
    asm volatile("" ::"r"(p) : "memory");
}

constexpr size_t kChunk = 64; ///< K bytes per _tile_dpbssd

/**
 * Transpose a 16 x 16 matrix of 32-bit elements, one row per vector.
 * It uses the zero-masking intrinsics with an all-ones mask, which
 * compile to the plain instructions: g++ 12's unmasked unpack and
 * shuffle intrinsics merge into a self-initialised
 * `_mm512_undefined_epi32()`, which -Wuninitialized reports
 * (GCC PR 105593).
 */
__attribute__((target("avx512f"))) inline void
transpose16x16(__m512i r[16])
{
    const __mmask16 all32 = 0xffff;
    const __mmask8 all64 = 0xff;
    // In each group of four rows, t[i + c] ends up holding column
    // 4l + c of rows i..i+3 in 128-bit lane l.
    __m512i t[16];
#pragma GCC unroll 4
    for (int i = 0; i < 16; i += 4) {
        __m512i lo01 = _mm512_maskz_unpacklo_epi32(all32, r[i], r[i + 1]);
        __m512i hi01 = _mm512_maskz_unpackhi_epi32(all32, r[i], r[i + 1]);
        __m512i lo23 =
            _mm512_maskz_unpacklo_epi32(all32, r[i + 2], r[i + 3]);
        __m512i hi23 =
            _mm512_maskz_unpackhi_epi32(all32, r[i + 2], r[i + 3]);
        t[i] = _mm512_maskz_unpacklo_epi64(all64, lo01, lo23);
        t[i + 1] = _mm512_maskz_unpackhi_epi64(all64, lo01, lo23);
        t[i + 2] = _mm512_maskz_unpacklo_epi64(all64, hi01, hi23);
        t[i + 3] = _mm512_maskz_unpackhi_epi64(all64, hi01, hi23);
    }
    // A 4 x 4 transpose of 128-bit lanes across the four groups.
#pragma GCC unroll 4
    for (int c = 0; c < 4; ++c) {
        __m512i x0 =
            _mm512_maskz_shuffle_i32x4(all32, t[c], t[4 + c], 0x44);
        __m512i x1 =
            _mm512_maskz_shuffle_i32x4(all32, t[c], t[4 + c], 0xee);
        __m512i y0 =
            _mm512_maskz_shuffle_i32x4(all32, t[8 + c], t[12 + c], 0x44);
        __m512i y1 =
            _mm512_maskz_shuffle_i32x4(all32, t[8 + c], t[12 + c], 0xee);
        r[c] = _mm512_maskz_shuffle_i32x4(all32, x0, y0, 0x88);
        r[4 + c] = _mm512_maskz_shuffle_i32x4(all32, x0, y0, 0xdd);
        r[8 + c] = _mm512_maskz_shuffle_i32x4(all32, x1, y1, 0x88);
        r[12 + c] = _mm512_maskz_shuffle_i32x4(all32, x1, y1, 0xdd);
    }
}

/**
 * Load bytes [k, k + 64) of each of the first @p n rows of a
 * row-major int8 matrix with row stride @p len, as 16 vectors; bytes
 * past @p len and rows past @p n read as zero and are never touched.
 */
__attribute__((target("avx512f,avx512bw"))) inline void
loadChunk(const int8_t *rows, int n, size_t len, size_t k,
          __m512i r[16])
{
    const size_t valid = std::min(kChunk, len - k);
    const __mmask64 mask = valid == kChunk ? ~__mmask64(0)
                                           : (__mmask64(1) << valid) - 1;
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
        r[i] = i < n ? _mm512_maskz_loadu_epi8(
                           mask, rows + size_t(i) * len + k)
                     : _mm512_setzero_si512();
    }
}

__attribute__((target("amx-tile,amx-int8,avx512f,avx512bw"))) void
dotTileAmxBody(const int8_t *px, int n_px, const int8_t *flt,
               int n_flt, size_t len, int32_t *sums)
{
    // tmm0 = C [filter][pixel] int32, tmm1 = A (filter rows, one K
    // chunk), tmm2 = B (one K chunk of the patches, VNNI layout:
    // row g holds bytes 4g..4g+3 of every pixel).
    TileConfig cfg;
    cfg.rows[0] = uint8_t(n_flt);
    cfg.colsb[0] = kTilePixels * 4;
    cfg.rows[1] = uint8_t(n_flt);
    cfg.colsb[1] = kChunk;
    cfg.rows[2] = kChunk / 4;
    cfg.colsb[2] = kTilePixels * 4;
    keepStores(&cfg);
    _tile_loadconfig(&cfg);
    _tile_zero(0);

    __m512i r[16];
    alignas(64) int8_t b_vnni[kChunk / 4][kTilePixels * 4];
    alignas(64) int8_t a_tail[kTileFilters][kChunk];
    for (size_t k = 0; k < len; k += kChunk) {
        // The stores of this chunk's B go after the last chunk's tile
        // loads and before this chunk's (see keepStores).
        keepStores(b_vnni);
        // The VNNI layout is the 4-byte transpose of the patches.
        loadChunk(px, n_px, len, k, r);
        transpose16x16(r);
#pragma GCC unroll 16
        for (size_t g = 0; g < kChunk / 4; ++g)
            _mm512_store_si512(b_vnni[g], r[g]);
        keepStores(b_vnni);
        if (k + kChunk <= len) {
            _tile_loadd(1, flt + k, len);
        } else {
            // A tail chunk loaded in place would read up to 63 bytes
            // past the last filter; load its zero-padded copy.
            loadChunk(flt, n_flt, len, k, r);
            for (int f = 0; f < n_flt; ++f)
                _mm512_store_si512(a_tail[f], r[f]);
            keepStores(a_tail);
            _tile_loadd(1, a_tail, kChunk);
        }
        _tile_loadd(2, b_vnni, kTilePixels * 4);
        _tile_dpbssd(0, 1, 2);
    }
    alignas(64) int32_t c_out[kTileFilters][kTilePixels];
    _tile_stored(0, c_out, kTilePixels * 4);
    _tile_release();

    for (int f = 0; f < kTileFilters; ++f) {
        r[f] = f < n_flt ? _mm512_load_si512(c_out[f])
                         : _mm512_setzero_si512();
    }
    transpose16x16(r);
    const __mmask16 in_range = __mmask16((1u << n_flt) - 1);
    for (int p = 0; p < n_px; ++p)
        _mm512_mask_storeu_epi32(sums + p * kTileFilters, in_range, r[p]);
    // As in the AVX2 body: no dirty upper zmm/ymm state may leak
    // into the SSE code that runs after this call.
    _mm256_zeroupper();
}

#endif // MAICC_HAVE_AMX_BODY

} // namespace

void
dotTilePortable(const int8_t *px, int n_px, const int8_t *flt,
                int n_flt, size_t len, int32_t *sums)
{
    forEachRegTile(regTilePortable, px, n_px, flt, n_flt, len, sums);
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

#ifdef MAICC_HAVE_AMX_BODY
const DotTileFn dotTileAmx = dotTileAmxBody;

bool
cpuHasAmx()
{
    // Linux hands out the 8 KB tile data state only on request
    // (ARCH_REQ_XCOMP_PERM for XFEATURE_XTILEDATA); the grant covers
    // every thread of the process.
    constexpr int kArchReqXcompPerm = 0x1023;
    constexpr int kXfeatureXtiledata = 18;
    static const bool granted = __builtin_cpu_supports("amx-tile")
        && __builtin_cpu_supports("amx-int8")
        && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512bw")
        && syscall(SYS_arch_prctl, kArchReqXcompPerm,
                   kXfeatureXtiledata) == 0;
    return granted;
}
#else
const DotTileFn dotTileAmx = nullptr;

bool
cpuHasAmx()
{
    return false;
}
#endif

DotTileFn
dotTile()
{
    static const DotTileFn chosen = cpuHasAmx() ? dotTileAmx
        : cpuHasAvx2()                           ? dotTileAvx2
                                                 : dotTilePortable;
    return chosen;
}

} // namespace maicc
