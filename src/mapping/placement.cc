#include "mapping/placement.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace maicc
{

NodeCoord
ArrayGeometry::serpentine(unsigned idx) const
{
    maicc_assert(idx < computeNodes());
    int row = idx / computeW;
    int col = idx % computeW;
    int x = (row % 2 == 0) ? computeX0 + col
                           : computeX0 + computeW - 1 - col;
    return {x, computeY0 + row};
}

NodeCoord
ArrayGeometry::llcForChannel(unsigned ch) const
{
    maicc_assert(ch < 2u * meshW);
    if (ch < static_cast<unsigned>(meshW))
        return {static_cast<int>(ch), 0};
    return {static_cast<int>(ch) - meshW, meshH - 1};
}

std::vector<const PlacedNode *>
SegmentPlacement::layerNodes(size_t layer) const
{
    std::vector<const PlacedNode *> out;
    for (const auto &n : nodes) {
        if (n.layerIdx == layer)
            out.push_back(&n);
    }
    return out;
}

namespace
{

/**
 * Call @p fn(word, mask) for each 64-bit word the slot range
 * [first, first + count) touches, with the range's bits in mask.
 */
template <typename Fn>
void
forEachWord(unsigned first, unsigned count, Fn &&fn)
{
    unsigned end = first + count;
    while (first < end) {
        unsigned bit = first % 64;
        unsigned span = std::min(64 - bit, end - first);
        fn(first / 64, mask(span) << bit);
        first += span;
    }
}

} // namespace

RegionAllocator::RegionAllocator(const ArrayGeometry &geo)
    : _n(geo.computeNodes()), _used((_n + 63) / 64, 0),
      _dead(_used.size(), 0), _free(_n), _possible(_n)
{
}

bool
RegionAllocator::test(const Words &w, unsigned slot) const
{
    maicc_assert(slot < _n);
    return (w[slot / 64] >> (slot % 64)) & 1;
}

unsigned
RegionAllocator::scan(const Words &w, unsigned from, bool set) const
{
    size_t i = from / 64;
    if (i >= w.size())
        return _n;
    uint64_t flip = set ? 0 : ~0ull;
    uint64_t bits = (w[i] ^ flip) & (~0ull << (from % 64));
    while (bits == 0) {
        if (++i == w.size())
            return _n;
        bits = w[i] ^ flip;
    }
    return unsigned(i * 64 + __builtin_ctzll(bits));
}

unsigned
RegionAllocator::longestRun(const Words &w) const
{
    unsigned best = 0;
    for (unsigned s = scan(w, 0, false); s < _n;) {
        unsigned e = scan(w, s, true);
        best = std::max(best, e - s);
        s = scan(w, e, false);
    }
    return best;
}

RegionGrant
RegionAllocator::allocateContiguous(unsigned count)
{
    if (count == 0 || count > _free)
        return {};

    // First fit: the lowest free run of length >= count. No
    // fallback — under fragmentation the caller must decide (shrink
    // the grant, or wait for a completion to re-coalesce the
    // region).
    for (unsigned s = scan(_used, 0, false); s < _n;) {
        unsigned e = scan(_used, s, true);
        if (e - s >= count) {
            forEachWord(s, count, [&](size_t i, uint64_t m) {
                _used[i] |= m;
            });
            _free -= count;
            return {s, count};
        }
        s = scan(_used, e, false);
    }
    return {};
}

void
RegionAllocator::release(const RegionGrant &grant)
{
    maicc_assert(grant.first + grant.count <= _n);
    forEachWord(grant.first, grant.count, [&](size_t i, uint64_t m) {
        maicc_assert((_used[i] & m) == m);
        maicc_assert((_dead[i] & m) == 0);
        _used[i] &= ~m;
    });
    _free += grant.count;
}

void
RegionAllocator::markDead(unsigned slot)
{
    if (dead(slot))
        return;
    // The serving layer displaces any batch occupying the victim
    // first, so the slot is free here; marking it used-forever is
    // what makes every run search (allocateContiguous,
    // longestFreeRun) coalesce around it with no extra cases.
    maicc_assert(!used(slot));
    uint64_t bit = 1ull << (slot % 64);
    _used[slot / 64] |= bit;
    _dead[slot / 64] |= bit;
    ++_dead_count;
    --_free;
    _possible = longestRun(_dead);
}

SegmentPlacement
placeSegment(const Segment &seg, const ArrayGeometry &geo)
{
    SegmentPlacement placement;
    unsigned pos = 0;
    for (const auto &lm : seg.layers) {
        // Data-collection core leads its chain.
        placement.nodes.push_back(
            {geo.serpentine(pos++), lm.layerIdx,
             NodeRole::DataCollect, 0});
        for (unsigned c = 0; c < lm.alloc.computeCores; ++c) {
            placement.nodes.push_back({geo.serpentine(pos++),
                                       lm.layerIdx,
                                       NodeRole::Compute, c});
        }
        for (unsigned m = 0; m + 1 < lm.alloc.auxCores; ++m) {
            placement.nodes.push_back({geo.serpentine(pos++),
                                       lm.layerIdx, NodeRole::Merge,
                                       m});
        }
    }
    maicc_assert(pos <= geo.computeNodes());
    return placement;
}

std::string
placementSignature(const SegmentPlacement &p)
{
    // A readable, separator-delimited encoding rather than raw
    // bytes: signatures end up inside timing-cache key material,
    // where an unambiguous text form makes collisions impossible to
    // create by field-boundary aliasing and easy to debug by eye.
    std::string sig;
    sig.reserve(p.nodes.size() * 16);
    for (const auto &n : p.nodes) {
        sig += std::to_string(n.coord.x);
        sig += ',';
        sig += std::to_string(n.coord.y);
        sig += ',';
        sig += std::to_string(n.layerIdx);
        sig += ',';
        sig += std::to_string(static_cast<int>(n.role));
        sig += ',';
        sig += std::to_string(n.chainPos);
        sig += ';';
    }
    return sig;
}

} // namespace maicc
