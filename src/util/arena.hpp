// Bump-pointer arena allocator (rspamd mem_pool idiom): allocations come
// from large chunks, individual objects are never freed, and `reset()`
// recycles every chunk for the next request. The grounder keeps its
// per-request scratch (pending rule instances, their body atom ids, builtin
// evaluation flags) in one thread-local arena, so once the arena has grown
// to its high-water mark that scratch costs no malloc. Ground atoms do not
// live here: each is stored once in an asp::AtomTable (DESIGN.md §13).
//
// Lifetime rule (DESIGN.md §13): anything that outlives the request —
// memo fragments, GroundProgram contents, interned symbols — must be
// deep-copied into ordinary heap values before the arena resets. Arena
// pointers are only valid between one `reset()` and the next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace agenp::util {

class Arena {
public:
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunk_bytes_(chunk_bytes < kMinChunkBytes ? kMinChunkBytes : chunk_bytes) {}

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    // Returns `size` bytes aligned to `align` (a power of two; alignments
    // beyond alignof(max_align_t) are honored by aligning the pointer, not
    // just the chunk offset). Requests larger than the chunk size get a
    // dedicated chunk.
    void* alloc(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
        if (size == 0) size = 1;
        std::size_t offset = current_ == nullptr ? 0 : aligned_offset(align);
        if (current_ == nullptr || offset + size > current_->size) {
            grow(size + align);
            offset = aligned_offset(align);
        }
        cursor_ = offset + size;
        bytes_allocated_ += size;
        return current_->data + offset;
    }

    template <typename T>
    T* alloc_array(std::size_t count) {
        return static_cast<T*>(alloc(count * sizeof(T), alignof(T)));
    }

    // Recycles every chunk: subsequent allocations reuse the memory already
    // obtained from malloc. Outstanding arena pointers become invalid (in
    // ASan builds the recycled memory is re-poisoned until re-allocated).
    void reset() {
        chunk_index_ = 0;
        current_ = chunks_.empty() ? nullptr : chunks_[0].get();
        cursor_ = 0;
        bytes_allocated_ = 0;
        ++resets_;
    }

    // Frees every chunk back to malloc.
    void release() {
        chunks_.clear();
        chunk_index_ = 0;
        current_ = nullptr;
        cursor_ = 0;
        bytes_allocated_ = 0;
    }

    [[nodiscard]] std::size_t bytes_allocated() const { return bytes_allocated_; }
    [[nodiscard]] std::size_t bytes_reserved() const {
        std::size_t total = 0;
        for (const auto& chunk : chunks_) total += chunk->size;
        return total;
    }
    [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
    [[nodiscard]] std::uint64_t resets() const { return resets_; }

private:
    static constexpr std::size_t kMinChunkBytes = 1024;

    struct Chunk {
        std::size_t size = 0;
        alignas(std::max_align_t) unsigned char data[1];  // over-allocated
    };
    struct ChunkDeleter {
        void operator()(Chunk* chunk) const { ::operator delete(static_cast<void*>(chunk)); }
    };
    using ChunkPtr = std::unique_ptr<Chunk, ChunkDeleter>;

    static ChunkPtr make_chunk(std::size_t size) {
        void* raw = ::operator new(sizeof(Chunk) + size);
        auto* chunk = static_cast<Chunk*>(raw);
        chunk->size = size;
        return ChunkPtr(chunk);
    }

    // Smallest offset >= cursor_ whose pointer into the current chunk is
    // `align`-aligned (the chunk base itself is only max_align-aligned).
    [[nodiscard]] std::size_t aligned_offset(std::size_t align) const {
        auto base = reinterpret_cast<std::uintptr_t>(current_->data);
        return ((base + cursor_ + (align - 1)) & ~(align - 1)) - base;
    }

    void grow(std::size_t at_least) {
        // Reuse the next already-reserved chunk when it is big enough;
        // otherwise splice in a fresh one (oversized requests get a
        // dedicated chunk) so later reserved chunks stay reachable.
        std::size_t want = at_least > chunk_bytes_ ? at_least : chunk_bytes_;
        std::size_t next = current_ == nullptr ? 0 : chunk_index_ + 1;
        if (next >= chunks_.size() || chunks_[next]->size < want) {
            chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(next), make_chunk(want));
        }
        chunk_index_ = next;
        current_ = chunks_[chunk_index_].get();
        cursor_ = 0;
    }

    std::size_t chunk_bytes_;
    std::vector<ChunkPtr> chunks_;
    std::size_t chunk_index_ = 0;
    Chunk* current_ = nullptr;
    std::size_t cursor_ = 0;
    std::size_t bytes_allocated_ = 0;
    std::uint64_t resets_ = 0;
};

// std-compatible allocator over an Arena. Deallocate is a no-op, so
// containers built with it must not outlive the next `reset()`.
template <typename T>
class ArenaAllocator {
public:
    using value_type = T;

    explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

    T* allocate(std::size_t n) { return arena_->alloc_array<T>(n); }
    void deallocate(T*, std::size_t) noexcept {}

    [[nodiscard]] Arena* arena() const noexcept { return arena_; }

    template <typename U>
    bool operator==(const ArenaAllocator<U>& other) const noexcept {
        return arena_ == other.arena();
    }
    template <typename U>
    bool operator!=(const ArenaAllocator<U>& other) const noexcept {
        return arena_ != other.arena();
    }

private:
    Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

// RAII request scope: resets the arena on entry so scratch from the
// previous request is recycled, and again on exit so arena pointers can't
// leak past the scope in debug builds.
class ArenaScope {
public:
    explicit ArenaScope(Arena& arena) : arena_(arena) { arena_.reset(); }
    ~ArenaScope() { arena_.reset(); }
    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;

private:
    Arena& arena_;
};

// The per-thread grounding arena: one per worker thread, reset per
// grounding request (see asp::ground). Thread-local, so no locking.
inline Arena& grounding_arena() {
    thread_local Arena arena;
    return arena;
}

}  // namespace agenp::util
