#include "asp/grounder.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "asp/substitution.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"

namespace agenp::asp {
namespace {

// A rule instance awaiting finalization, over the grounder's atom ids:
// its body is `npos` positive then `nneg` negative ids at `body` in the
// grounder's body pool.
struct PendingRule {
    AtomId head = kNoHead;
    std::uint32_t body = 0;
    std::uint32_t npos = 0;
    std::uint32_t nneg = 0;
};

// Ground atoms met by one grounding, each interned once in an AtomTable.
// An atom enters the table when it is derived (a seed or a rule head) or
// when it appears under negation; only derived atoms are matched against
// and count towards max_atoms. Per-predicate id lists carry two boundaries
// so the semi-naive rounds can address the "old" span [0, old_end) and the
// "delta" span [old_end, cur_end).
class DerivedAtoms {
public:
    [[nodiscard]] const Atom& operator[](AtomId id) const { return table_[id]; }
    [[nodiscard]] bool derived(AtomId id) const { return derived_[static_cast<std::size_t>(id)]; }

    // Interns `a` without deriving it.
    AtomId intern(Atom&& a) {
        auto [id, added] = table_.insert(std::move(a));
        if (added) derived_.push_back(false);
        return id;
    }

    // Interns and derives `a`. Newly derived atoms are staged and only
    // appended to the per-predicate lists at round boundaries: match_from
    // holds raw pointers into those lists, so appending mid-round would
    // invalidate them. Returns the id and whether `a` was newly derived.
    std::pair<AtomId, bool> derive(Atom&& a) {
        AtomId id = intern(std::move(a));
        if (derived(id)) return {id, false};
        derived_[static_cast<std::size_t>(id)] = true;
        staging_.push_back(id);
        ++total_;
        return {id, true};
    }

    [[nodiscard]] std::size_t total() const { return total_; }

    struct Span {
        const AtomId* begin = nullptr;
        const AtomId* end = nullptr;
    };

    enum class Range { Old, Delta, All };

    Span span(Symbol pred, Range range) const {
        auto it = lists_.find(pred.id());
        if (it == lists_.end()) return {};
        const auto& list = it->second;
        const AtomId* ids = list.ids.data();
        switch (range) {
            case Range::Old:
                return {ids, ids + list.old_end};
            case Range::Delta:
                return {ids + list.old_end, ids + list.cur_end};
            case Range::All:
                return {ids, ids + list.cur_end};
        }
        return {};
    }

    // Closes the round: flushes staged atoms, then old <- previous
    // old+delta, delta <- the flushed atoms. Returns true if the new delta
    // is non-empty for any predicate.
    bool advance_round() {
        for (AtomId id : staging_) lists_[table_[id].predicate.id()].ids.push_back(id);
        staging_.clear();
        bool any = false;
        for (auto& [pred, list] : lists_) {
            list.old_end = list.cur_end;
            list.cur_end = list.ids.size();
            if (list.cur_end > list.old_end) any = true;
        }
        return any;
    }

    // Hands over the interned atoms, indexed by id; the table is empty
    // afterwards, while derived() keeps answering.
    std::vector<Atom> release_atoms() { return table_.release(); }

private:
    struct PredicateList {
        std::vector<AtomId> ids;
        std::size_t old_end = 0;
        std::size_t cur_end = 0;
    };

    AtomTable table_;
    std::vector<bool> derived_;  // by id
    std::vector<AtomId> staging_;
    std::unordered_map<std::uint32_t, PredicateList> lists_;
    std::size_t total_ = 0;
};

class GrounderImpl {
public:
    GrounderImpl(const Program& program, const GroundingLimits& limits, util::Arena& arena)
        : program_(program),
          limits_(limits),
          body_ids_(util::ArenaAllocator<AtomId>(arena)),
          pending_(util::ArenaAllocator<PendingRule>(arena)),
          builtin_done_(util::ArenaAllocator<char>(arena)) {}

    GroundProgram run() {
        instantiate();
        return finalize();
    }

    SeededGrounding run_seeded(const std::vector<Atom>& seeds) {
        collect_new_ = true;
        for (const auto& a : seeds) derived_.derive(Atom(a));
        instantiate();
        return finalize_seeded();
    }

private:
    void instantiate() {
        check_safety();

        // Round 0: rules with no positive body literals fire exactly once
        // (matched_ is still empty, as their positive body is).
        for (const auto& rule : program_.rules()) {
            if (positive_count(rule) == 0) {
                Subst subst;
                finish_instance(rule, subst);
            }
        }

        // Semi-naive rounds: each instantiation must use at least one delta
        // atom in its positive body (pivot position j). Seeds (when present)
        // were staged before round 0 and join the first delta here.
        std::size_t rounds = 0;
        while (derived_.advance_round()) {
            ++rounds;
            for (const auto& rule : program_.rules()) {
                int pcount = positive_count(rule);
                matched_.resize(static_cast<std::size_t>(pcount));
                for (int pivot = 0; pivot < pcount; ++pivot) {
                    Subst subst;
                    match_from(rule, 0, pivot, subst);
                }
            }
        }
        derived_.advance_round();  // flush atoms from the final round into "all"

        publish(rounds);
    }
    // Rejects unsafe rules with one ASP001 diagnostic per unbound variable
    // (rule index + variable name + rule text), gathered across the whole
    // program before throwing so callers see every offender at once.
    void check_safety() const {
        std::vector<analysis::Diagnostic> diags;
        for (std::size_t i = 0; i < program_.rules().size(); ++i) {
            const Rule& rule = program_.rules()[i];
            for (Symbol v : rule.unsafe_variables()) {
                analysis::Diagnostic d;
                d.code = analysis::codes::kUnsafeVariable;
                d.severity = analysis::Severity::Error;
                d.message = "unsafe variable " + std::string(v.str()) +
                            " is not bound by any positive body literal";
                d.hint = "add a positive body literal (or a V = ground-expr binder) covering " +
                         std::string(v.str());
                d.location.rule = static_cast<int>(i);
                d.location.context = rule.to_string();
                diags.push_back(std::move(d));
            }
        }
        if (diags.empty()) return;
        std::string message = "unsafe program: ";
        for (std::size_t i = 0; i < diags.size(); ++i) {
            if (i > 0) message += "; ";
            message += diags[i].to_string();
        }
        throw GroundingError(message, std::move(diags));
    }

    static int positive_count(const Rule& rule) {
        int n = 0;
        for (const auto& l : rule.body) {
            if (l.positive) ++n;
        }
        return n;
    }

    // Returns the index-th positive literal of the rule.
    static const Atom& positive_literal(const Rule& rule, int index) {
        int n = 0;
        for (const auto& l : rule.body) {
            if (l.positive && n++ == index) return l.atom;
        }
        throw GroundingError("internal: positive literal index out of range");
    }

    void match_from(const Rule& rule, int index, int pivot, Subst& subst) {
        if (index == positive_count(rule)) {
            finish_instance(rule, subst);
            return;
        }
        const Atom& pattern = positive_literal(rule, index);
        auto range = index == pivot   ? DerivedAtoms::Range::Delta
                     : index < pivot ? DerivedAtoms::Range::Old
                                     : DerivedAtoms::Range::All;
        auto span = derived_.span(pattern.predicate, range);
        for (const AtomId* id = span.begin; id != span.end; ++id) {
            std::size_t mark = subst.size();
            // The matched atom is only read here: deriving below may grow
            // the table and move its atoms.
            if (match_atom(pattern, derived_[*id], subst)) {
                matched_[static_cast<std::size_t>(index)] = *id;
                match_from(rule, index + 1, pivot, subst);
            }
            subst.truncate(mark);
        }
    }

    // Evaluates builtins (with `V = ground-expr` acting as a binder),
    // grounds negatives and the head, and emits the instance. The positive
    // body is the atoms match_from matched, in body order.
    void finish_instance(const Rule& rule, Subst& subst) {
        std::size_t mark = subst.size();
        if (!evaluate_builtins(rule.builtins, subst)) {
            subst.truncate(mark);
            return;
        }

        PendingRule pending;
        pending.body = static_cast<std::uint32_t>(body_ids_.size());
        pending.npos = static_cast<std::uint32_t>(matched_.size());
        body_ids_.insert(body_ids_.end(), matched_.begin(), matched_.end());
        for (const auto& l : rule.body) {
            if (l.positive) continue;
            Atom ground_atom = apply_subst(l.atom, subst);
            if (!ground_atom.is_ground()) {
                throw GroundingError("internal: non-ground literal after substitution in " + rule.to_string());
            }
            body_ids_.push_back(derived_.intern(std::move(ground_atom)));
            ++pending.nneg;
        }
        if (rule.head) {
            Atom head = apply_subst(*rule.head, subst);
            if (!head.is_ground()) {
                throw GroundingError("internal: non-ground head after substitution in " + rule.to_string());
            }
            auto [id, added] = derived_.derive(std::move(head));
            if (added && collect_new_) new_atoms_.push_back(id);
            if (derived_.total() > limits_.max_atoms) {
                throw GroundingError("grounding exceeded max_atoms limit");
            }
            pending.head = id;
        }

        // Structurally identical instances collapse: with atoms interned,
        // an instance is equal to another exactly when their ids are.
        auto next = static_cast<std::int32_t>(pending_.size());
        bool inserted = seen_rules_
                            .find_or_insert(instance_hash(pending), next,
                                            [&](std::int32_t slot) {
                                                return same_instance(
                                                    pending_[static_cast<std::size_t>(slot)],
                                                    pending);
                                            })
                            .second;
        if (inserted) {
            pending_.push_back(pending);
            if (pending_.size() > limits_.max_rules) {
                throw GroundingError("grounding exceeded max_rules limit");
            }
        } else {
            body_ids_.resize(pending.body);
        }
        subst.truncate(mark);
    }

    [[nodiscard]] const AtomId* body(const PendingRule& rule) const {
        return body_ids_.data() + rule.body;
    }

    // Order-sensitive hash of an instance; dedupe compares the ids on a
    // hash match, so the hash only has to spread.
    [[nodiscard]] std::uint64_t instance_hash(const PendingRule& rule) const {
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(rule.head)) + 2);
        mix(rule.npos);
        const AtomId* ids = body(rule);
        for (std::uint32_t i = 0; i < rule.npos + rule.nneg; ++i) {
            mix(static_cast<std::uint64_t>(ids[i]));
        }
        return h;
    }

    [[nodiscard]] bool same_instance(const PendingRule& a, const PendingRule& b) const {
        return a.head == b.head && a.npos == b.npos && a.nneg == b.nneg &&
               std::equal(body(a), body(a) + a.npos + a.nneg, body(b));
    }

    bool evaluate_builtins(const std::vector<Comparison>& builtins, Subst& subst) {
        // Arena-backed scratch: this runs once per candidate instance, so a
        // heap vector here would be the hottest allocation in the grounder.
        builtin_done_.assign(builtins.size(), 0);
        auto& done = builtin_done_;
        bool progress = true;
        std::size_t remaining = builtins.size();
        while (progress && remaining > 0) {
            progress = false;
            for (std::size_t i = 0; i < builtins.size(); ++i) {
                if (done[i]) continue;
                Term lhs = apply_subst(builtins[i].lhs, subst);
                Term rhs = apply_subst(builtins[i].rhs, subst);
                if (builtins[i].op == Comparison::Op::Eq && lhs.is_variable() && rhs.is_ground()) {
                    auto value = evaluate_arithmetic(rhs);
                    if (!value) return false;
                    subst.bind(lhs.symbol(), *value);
                } else if (lhs.is_ground() && rhs.is_ground()) {
                    auto result = Comparison(builtins[i].op, lhs, rhs).evaluate();
                    if (!result || !*result) return false;
                } else {
                    continue;  // wait for more bindings
                }
                done[i] = true;
                --remaining;
                progress = true;
            }
        }
        // Safety guarantees every builtin eventually grounds.
        return remaining == 0;
    }

    GroundProgram finalize() {
        GroundProgram gp;
        // Each table atom moves into `gp` on first use, so program ids are
        // assigned in the order the rules below reach them.
        std::vector<Atom> atoms = derived_.release_atoms();
        std::vector<AtomId> to_program(atoms.size(), kNoAtom);
        auto intern = [&](AtomId id) {
            AtomId& mapped = to_program[static_cast<std::size_t>(id)];
            if (mapped == kNoAtom) mapped = gp.intern(std::move(atoms[static_cast<std::size_t>(id)]));
            return mapped;
        };
        for (const auto& pending : pending_) gp.add_rule(build<GroundRule>(pending, intern));
        return gp;
    }

    // Atom-form finalize for compositional grounding: same negative-literal
    // simplification as `finalize` (sound because the memo only composes
    // fragments whose derivable sets are closed — see GroundingMemo), but
    // rules stay as atoms so the caller can relocate their namespace.
    SeededGrounding finalize_seeded() {
        std::vector<Atom> atoms = derived_.release_atoms();
        auto atom = [&](AtomId id) -> Atom& { return atoms[static_cast<std::size_t>(id)]; };
        SeededGrounding out;
        out.rules.reserve(pending_.size());
        for (const auto& pending : pending_) out.rules.push_back(build<AtomRule>(pending, atom));
        // New atoms are distinct and read for the last time: moved, not copied.
        out.new_atoms.reserve(new_atoms_.size());
        for (AtomId id : new_atoms_) out.new_atoms.push_back(std::move(atom(id)));
        return out;
    }

    // A pending instance as a GroundRule or AtomRule, its atoms given by
    // `atom(id)`. A negative literal on an underivable atom is dropped
    // ("not a" is trivially true). Atoms are visited negatives first, then
    // positives, then the head; `finalize` assigns program ids in that
    // order, which fixes the solver's answer-set enumeration order.
    template <typename Out, typename AtomOf>
    Out build(const PendingRule& pending, AtomOf& atom) const {
        Out rule;
        const AtomId* pos = body(pending);
        const AtomId* neg = pos + pending.npos;
        const AtomId* end = neg + pending.nneg;
        auto derived = [&](AtomId id) { return derived_.derived(id); };
        rule.neg.reserve(static_cast<std::size_t>(std::count_if(neg, end, derived)));
        for (const AtomId* id = neg; id != end; ++id) {
            if (derived(*id)) rule.neg.push_back(atom(*id));
        }
        rule.pos.reserve(pending.npos);
        for (const AtomId* id = pos; id != neg; ++id) rule.pos.push_back(atom(*id));
        if (pending.head != kNoHead) rule.head = atom(pending.head);
        return rule;
    }

    // One flush per grounding keeps the instantiation loops atomics-free.
    void publish(std::size_t rounds) const {
        if (!obs::metrics_enabled()) return;
        auto& m = obs::metrics();
        static obs::Counter& groundings = m.counter("asp.grounder.groundings");
        static obs::Counter& rules = m.counter("asp.grounder.rules");
        static obs::Counter& atoms = m.counter("asp.grounder.atoms");
        static obs::Counter& round_counter = m.counter("asp.grounder.rounds");
        groundings.add(1);
        rules.add(pending_.size());
        atoms.add(derived_.total());
        round_counter.add(rounds);
    }

    const Program& program_;
    GroundingLimits limits_;
    DerivedAtoms derived_;
    // Ids of the positive literals matched so far, one per position.
    std::vector<AtomId> matched_;
    // Pending instances and their bodies live in the per-request arena.
    util::ArenaVector<AtomId> body_ids_;
    util::ArenaVector<PendingRule> pending_;
    HashIndex seen_rules_;  // pending_ slots keyed by instance_hash
    util::ArenaVector<char> builtin_done_;
    bool collect_new_ = false;
    std::vector<AtomId> new_atoms_;  // newly derived heads, in derivation order
};

}  // namespace

GroundProgram ground(const Program& program, const GroundingLimits& limits) {
    // The scratch arena is reset per grounding (and re-poisoned under
    // ASan); everything the grounder returns is deep-copied into the
    // GroundProgram, so nothing escapes the scope.
    util::ArenaScope scope(util::grounding_arena());
    return GrounderImpl(program, limits, util::grounding_arena()).run();
}

SeededGrounding ground_seeded(const Program& program, const std::vector<Atom>& seeds,
                              const GroundingLimits& limits) {
    util::ArenaScope scope(util::grounding_arena());
    return GrounderImpl(program, limits, util::grounding_arena()).run_seeded(seeds);
}

}  // namespace agenp::asp
