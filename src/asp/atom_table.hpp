// Interned ground atoms with dense ids (DESIGN.md §13).
//
// `AtomTable` stores each ground atom once, in a vector, and finds it
// again through a `HashIndex`: an open-addressing table of ids with each
// atom's hash cached in its slot. No atom is ever copied into a map key,
// so interning a new atom costs its one stored copy and nothing else.
// `GroundProgram` and the grounder's set of derived atoms are both built
// on it, and `GroundProgram` reuses `HashIndex` for its rule dedupe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "asp/atom.hpp"

namespace agenp::asp {

using AtomId = std::int32_t;
inline constexpr AtomId kNoAtom = -1;

// Open-addressing (linear probing) index from 64-bit hashes to dense
// non-negative ids. It stores no keys: the owner keeps them, indexed by
// id, and passes the equality test (`same(id)`) to each probe, so one
// index type serves atoms, ground rules and pending rule instances.
class HashIndex {
public:
    // The id stored under `hash` for which `same(id)` holds, or kNoAtom.
    template <typename Same>
    [[nodiscard]] std::int32_t find(std::uint64_t hash, Same&& same) const {
        if (slots_.empty()) return kNoAtom;
        for (std::size_t i = home(hash);; i = (i + 1) & mask_) {
            const Slot& slot = slots_[i];
            if (slot.id == kNoAtom) return kNoAtom;
            if (slot.hash == hash && same(slot.id)) return slot.id;
        }
    }

    // Like `find`, but when no stored id matches, stores `next_id` under
    // `hash`. Returns the id and whether it was stored.
    template <typename Same>
    std::pair<std::int32_t, bool> find_or_insert(std::uint64_t hash, std::int32_t next_id,
                                                 Same&& same) {
        if ((size_ + 1) * 2 > slots_.size()) grow();
        std::size_t i = home(hash);
        for (;; i = (i + 1) & mask_) {
            const Slot& slot = slots_[i];
            if (slot.id == kNoAtom) break;
            if (slot.hash == hash && same(slot.id)) return {slot.id, false};
        }
        slots_[i] = {hash, next_id};
        ++size_;
        return {next_id, true};
    }

    void clear() {
        slots_.clear();
        size_ = 0;
    }

private:
    struct Slot {
        std::uint64_t hash = 0;
        std::int32_t id = kNoAtom;
    };

    // Fibonacci hashing: the top bits of the product depend on every bit
    // of `hash`, so weakly mixed hashes still spread.
    [[nodiscard]] std::size_t home(std::uint64_t hash) const {
        return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    // Doubles the slot array (at most half full afterwards) and re-places
    // every id by its cached hash.
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 0;
};

// Ground atoms interned once, with ids dense in first-insert order.
class AtomTable {
public:
    // The id of `atom` (which must be ground), adding it when absent: a
    // new atom is copied (or moved) into the table exactly once. Returns
    // the id and whether it was added.
    std::pair<AtomId, bool> insert(const Atom& atom) { return insert_impl(atom); }
    std::pair<AtomId, bool> insert(Atom&& atom) { return insert_impl(std::move(atom)); }

    // The id of `atom`, or kNoAtom when it was never inserted.
    [[nodiscard]] AtomId find(const Atom& atom) const {
        return index_.find(atom.hash(), [&](AtomId id) { return (*this)[id] == atom; });
    }

    [[nodiscard]] const Atom& operator[](AtomId id) const {
        return atoms_[static_cast<std::size_t>(id)];
    }
    [[nodiscard]] std::size_t size() const { return atoms_.size(); }

    // Hands over the atoms, indexed by id, and leaves the table empty.
    std::vector<Atom> release() {
        index_.clear();
        return std::exchange(atoms_, {});
    }

private:
    template <typename A>
    std::pair<AtomId, bool> insert_impl(A&& atom) {
        auto next = static_cast<AtomId>(atoms_.size());
        auto found = index_.find_or_insert(atom.hash(), next,
                                           [&](AtomId id) { return (*this)[id] == atom; });
        if (found.second) atoms_.push_back(std::forward<A>(atom));
        return found;
    }

    std::vector<Atom> atoms_;
    HashIndex index_;
};

}  // namespace agenp::asp
