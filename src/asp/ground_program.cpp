#include "asp/ground_program.hpp"

#include <algorithm>

namespace agenp::asp {

namespace {

// Deduplicates in place while preserving first-occurrence order (rule bodies
// keep the order they were written in, which matters for readable output).
// Bodies are short, so a scan of the kept prefix beats a set.
void dedupe_keep_order(std::vector<AtomId>& ids) {
    auto kept = ids.begin();
    for (auto it = ids.begin(); it != ids.end(); ++it) {
        if (std::find(ids.begin(), kept, *it) == kept) *kept++ = *it;
    }
    ids.erase(kept, ids.end());
}

void sorted_copy(const std::vector<AtomId>& ids, std::vector<AtomId>& out) {
    out.assign(ids.begin(), ids.end());
    std::sort(out.begin(), out.end());
}

// Whether the deduped `ids` hold exactly the elements of `sorted`.
bool same_set(const std::vector<AtomId>& ids, const std::vector<AtomId>& sorted) {
    if (ids.size() != sorted.size()) return false;
    return std::all_of(ids.begin(), ids.end(), [&](AtomId id) {
        return std::binary_search(sorted.begin(), sorted.end(), id);
    });
}

// Order-insensitive structural hash for rule deduplication.
std::uint64_t rule_hash(AtomId head, const std::vector<AtomId>& sorted_pos,
                        const std::vector<AtomId>& sorted_neg) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(head)) + 2);
    mix(0x706f73ull);  // pos / neg section separators
    for (auto id : sorted_pos) mix(static_cast<std::uint64_t>(id) + 1);
    mix(0x6e6567ull);
    for (auto id : sorted_neg) mix(static_cast<std::uint64_t>(id) + 1);
    return h;
}

}  // namespace

void GroundProgram::add_rule(GroundRule rule) {
    dedupe_keep_order(rule.pos);
    dedupe_keep_order(rule.neg);
    sorted_copy(rule.pos, sorted_pos_);
    sorted_copy(rule.neg, sorted_neg_);
    auto next = static_cast<std::int32_t>(rules_.size());
    auto [id, inserted] = rule_index_.find_or_insert(
        rule_hash(rule.head, sorted_pos_, sorted_neg_), next, [&](std::int32_t slot) {
            const GroundRule& existing = rules_[static_cast<std::size_t>(slot)];
            return existing.head == rule.head && same_set(existing.pos, sorted_pos_) &&
                   same_set(existing.neg, sorted_neg_);
        });
    if (inserted) rules_.push_back(std::move(rule));
}

std::string GroundProgram::to_string() const {
    std::string out;
    for (const auto& r : rules_) {
        if (r.head != kNoHead) out += atom(r.head).to_string();
        if (!r.pos.empty() || !r.neg.empty()) {
            out += r.head != kNoHead ? " :- " : ":- ";
            bool first = true;
            for (auto id : r.pos) {
                if (!first) out += ", ";
                out += atom(id).to_string();
                first = false;
            }
            for (auto id : r.neg) {
                if (!first) out += ", ";
                out += "not " + atom(id).to_string();
                first = false;
            }
        }
        out += ".\n";
    }
    return out;
}

}  // namespace agenp::asp
