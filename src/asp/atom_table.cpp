#include "asp/atom_table.hpp"

#include <bit>

namespace agenp::asp {

void HashIndex::grow() {
    std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
        if (slot.id == kNoAtom) continue;
        std::size_t i = home(slot.hash);
        while (slots_[i].id != kNoAtom) i = (i + 1) & mask_;
        slots_[i] = slot;
    }
}

}  // namespace agenp::asp
