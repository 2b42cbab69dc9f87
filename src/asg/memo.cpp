#include "asg/memo.hpp"

#include <string>
#include <utility>

#include "asg/instantiate.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace agenp::asg {

namespace {

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    h *= 1099511628211ull;
    return h;
}

std::size_t atom_bytes(const asp::Atom& atom) {
    return sizeof(asp::Atom) + atom.args.size() * sizeof(asp::Term);
}

std::size_t fragment_bytes(const GroundedFragment& fragment) {
    std::size_t bytes = sizeof(GroundedFragment);
    for (const auto& rule : fragment.rules) {
        bytes += sizeof(asp::AtomRule);
        if (rule.head) bytes += atom_bytes(*rule.head);
        for (const auto& a : rule.pos) bytes += atom_bytes(a);
        for (const auto& a : rule.neg) bytes += atom_bytes(a);
    }
    for (const auto& a : fragment.derived) bytes += atom_bytes(a);
    return bytes;
}

bool heads_unannotated(const asp::Program& program) {
    for (const auto& rule : program.rules()) {
        if (rule.head && rule.head->annotation != asp::kUnannotated) return false;
    }
    return true;
}

// Renames a fragment-relative predicate into the namespace of child
// `index`: "p@" -> "p@index", "p@x.y" -> "p@index.x.y". Fragment atoms
// carry exactly one '@' (the mangle separator; the ASP lexer rejects '@'
// in user identifiers), so a plain find is unambiguous.
class Relocator {
public:
    explicit Relocator(int index) : suffix_("@" + std::to_string(index)) {}

    util::Symbol predicate(util::Symbol p) {
        auto it = cache_.find(p.id());
        if (it != cache_.end()) return it->second;
        std::string_view name = p.str();
        auto at = name.find('@');
        std::string out(name.substr(0, at));  // npos = whole name (defensive)
        out += suffix_;
        if (at != std::string_view::npos && at + 1 < name.size()) {
            out += '.';
            out += name.substr(at + 1);
        }
        util::Symbol s(out);
        cache_.emplace(p.id(), s);
        return s;
    }

    asp::Atom atom(const asp::Atom& a) {
        return asp::Atom(predicate(a.predicate), a.args, a.annotation);
    }

private:
    std::string suffix_;
    std::unordered_map<std::uint32_t, util::Symbol> cache_;
};

}  // namespace

GroundingMemo::GroundingMemo(MemoOptions options) {
    std::size_t shard_count = round_up_pow2(options.shards == 0 ? 1 : options.shards);
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_mask_ = shard_count - 1;
    shard_capacity_ = options.capacity_bytes / shard_count;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
}

bool GroundingMemo::memoizable(const AnswerSetGrammar& grammar, const asp::Program& context) {
    if (!heads_unannotated(context)) return false;
    for (std::size_t p = 0; p < grammar.production_count(); ++p) {
        if (!heads_unannotated(grammar.annotation(static_cast<int>(p)))) return false;
    }
    return true;
}

void GroundingMemo::note_gate_fallback() {
    gate_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

MemoStats GroundingMemo::stats() const {
    MemoStats out;
    for (const auto& shard : shards_) {
        obs::ProfiledMutexLock lock(shard->mu);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.insertions += shard->insertions;
        out.evictions += shard->evictions;
        out.invalidations += shard->invalidations;
        out.sat_hits += shard->sat_hits;
        out.entries += shard->lru.size();
        out.bytes += shard->bytes;
    }
    out.gate_fallbacks = gate_fallbacks_.load(std::memory_order_relaxed);
    return out;
}

void GroundingMemo::clear() {
    for (auto& shard : shards_) {
        std::list<Entry> released;  // destroyed after the lock is dropped
        obs::ProfiledMutexLock lock(shard->mu);
        released.swap(shard->lru);
        shard->index.clear();
        shard->bytes = 0;
    }
}

std::list<GroundingMemo::Entry>::iterator GroundingMemo::find_live(Shard& shard, const Key& key,
                                                                   std::list<Entry>& released) {
    auto it = shard.index.find(key.hash);
    if (it == shard.index.end()) return shard.lru.end();
    auto entry = it->second;
    if (entry->epoch != epoch()) {
        ++shard.invalidations;
        erase_entry(shard, entry, released);
        return shard.lru.end();
    }
    if (entry->key.context_lo != key.context_lo || entry->key.context_hi != key.context_hi ||
        entry->key.shape != key.shape) {
        return shard.lru.end();  // 64-bit hash collision: treat as absent
    }
    return entry;
}

GroundingMemo::Entry& GroundingMemo::upsert(Shard& shard, const Key& key,
                                            std::list<Entry>& released) {
    auto it = find_live(shard, key, released);
    if (it != shard.lru.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);  // touch
        return *it;
    }
    auto collided = shard.index.find(key.hash);
    if (collided != shard.index.end()) erase_entry(shard, collided->second, released);
    Entry& entry = shard.lru.emplace_front();
    entry.key = key;
    entry.epoch = epoch();
    entry.bytes = key.shape.size() * sizeof(int) + sizeof(Entry);
    shard.index.emplace(key.hash, shard.lru.begin());
    shard.bytes += entry.bytes;
    ++shard.insertions;
    return entry;
}

void GroundingMemo::erase_entry(Shard& shard, std::list<Entry>::iterator it,
                                std::list<Entry>& released) {
    shard.bytes -= it->bytes;
    shard.index.erase(it->key.hash);
    released.splice(released.end(), shard.lru, it);
}

void GroundingMemo::evict_over_budget(Shard& shard, std::list<Entry>& released) {
    while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
        ++shard.evictions;
        erase_entry(shard, std::prev(shard.lru.end()), released);
    }
}

std::shared_ptr<const GroundedFragment> GroundingMemo::find_fragment(const Key& key) {
    std::list<Entry> released;
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = find_live(shard, key, released);
    if (it == shard.lru.end() || !it->fragment) {
        ++shard.misses;
        return nullptr;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it);  // touch
    return it->fragment;
}

std::optional<bool> GroundingMemo::find_verdict(const Key& key) {
    std::list<Entry> released;
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    auto it = find_live(shard, key, released);
    if (it == shard.lru.end() || it->verdict < 0) {
        ++shard.misses;
        return std::nullopt;
    }
    ++shard.hits;
    ++shard.sat_hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it);  // touch
    return it->verdict == 1;
}

void GroundingMemo::insert(const Key& key, std::shared_ptr<const GroundedFragment> fragment) {
    std::list<Entry> released;
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    Entry& entry = upsert(shard, key, released);
    if (!entry.fragment && fragment) {
        entry.bytes += fragment->bytes;
        shard.bytes += fragment->bytes;
        entry.fragment = std::move(fragment);
    }
    evict_over_budget(shard, released);
}

void GroundingMemo::store_verdict(const Key& key, bool satisfiable) {
    std::list<Entry> released;
    Shard& shard = shard_for(key.hash);
    obs::ProfiledMutexLock lock(shard.mu);
    upsert(shard, key, released).verdict = satisfiable ? 1 : 0;
    evict_over_budget(shard, released);
}

MemoizedGrounding::MemoizedGrounding(GroundingMemo* memo, const AnswerSetGrammar& grammar,
                                     const asp::Program& context,
                                     const asp::GroundingLimits& limits)
    : memo_(memo), grammar_(grammar), context_(context), limits_(limits) {
    if (memo_ == nullptr) return;
    if (!GroundingMemo::memoizable(grammar_, context_)) {
        memo_->note_gate_fallback();
        return;
    }
    usable_ = true;
    // 128-bit context fingerprint: a structural fold over Rule::hash plus
    // an independent FNV over the printed rules. Entries also compare both
    // halves, so a wrong fragment needs a simultaneous 128-bit collision.
    context_lo_ = 1469598103934665603ull;
    context_hi_ = 0x517cc1b727220a95ull;
    for (const auto& rule : context_.rules()) {
        context_lo_ = mix64(context_lo_, rule.hash());
        context_hi_ = mix64(context_hi_, util::fnv1a_hash(rule.to_string()));
    }
}

MemoizedGrounding::~MemoizedGrounding() {
    if (!obs::metrics_enabled()) return;
    if (local_hits_ == 0 && local_misses_ == 0 && local_sat_hits_ == 0) return;
    auto& m = obs::metrics();
    static obs::Counter& hits = m.counter("asg.memo.hits");
    static obs::Counter& misses = m.counter("asg.memo.misses");
    static obs::Counter& sat_hits = m.counter("asg.memo.sat_hits");
    hits.add(local_hits_);
    misses.add(local_misses_);
    sat_hits.add(local_sat_hits_);
}

GroundingMemo::Key MemoizedGrounding::make_key(const cfg::ParseNode& node) const {
    GroundingMemo::Key key;
    key.context_lo = context_lo_;
    key.context_hi = context_hi_;
    cfg::subtree_shape(node, key.shape);
    key.hash = mix64(mix64(cfg::subtree_hash(node), context_lo_), context_hi_);
    return key;
}

std::shared_ptr<const GroundedFragment> MemoizedGrounding::ground_fragment(
    const cfg::ParseNode& node) {
    GroundingMemo::Key key = make_key(node);
    if (auto fragment = memo_->find_fragment(key)) {
        ++local_hits_;
        return fragment;
    }
    ++local_misses_;
    auto fragment = std::make_shared<GroundedFragment>();
    fragment->derived =
        compose(node, [&](asp::AtomRule&& rule) { fragment->rules.push_back(std::move(rule)); });
    fragment->bytes = fragment_bytes(*fragment);
    memo_->insert(key, fragment);
    return fragment;
}

template <typename Emit>
std::vector<asp::Atom> MemoizedGrounding::compose(const cfg::ParseNode& node, Emit&& emit) {
    std::vector<asp::Atom> derived;
    std::size_t rule_count = 0;

    // Children first: relocate their rules and derived atoms into this
    // node's namespace (child i lives under "@i"). Leaves contribute
    // nothing — their effect is already folded into `node.production`.
    for (std::size_t i = 0; i < node.children.size(); ++i) {
        const cfg::ParseNode& child = node.children[i];
        if (child.is_leaf()) continue;
        auto child_fragment = ground_fragment(child);
        Relocator reloc(static_cast<int>(i) + 1);
        for (const auto& rule : child_fragment->rules) {
            asp::AtomRule moved;
            if (rule.head) moved.head = reloc.atom(*rule.head);
            moved.pos.reserve(rule.pos.size());
            for (const auto& a : rule.pos) moved.pos.push_back(reloc.atom(a));
            moved.neg.reserve(rule.neg.size());
            for (const auto& a : rule.neg) moved.neg.push_back(reloc.atom(a));
            emit(std::move(moved));
        }
        rule_count += child_fragment->rules.size();
        for (const auto& a : child_fragment->derived) derived.push_back(reloc.atom(a));
    }

    // This node's own contribution: its production's annotation plus the
    // context, renamed to the local namespace and grounded against the
    // children's derived atoms.
    asp::Program local;
    const asp::Program& annotation = grammar_.annotation(node.production);
    local.rules().reserve(annotation.size() + context_.size());
    for (const auto& rule : annotation.rules()) local.add(rename_rule_at(rule, {}));
    for (const auto& rule : context_.rules()) local.add(rename_rule_at(rule, {}));
    asp::SeededGrounding seeded = asp::ground_seeded(local, derived, limits_);

    rule_count += seeded.rules.size();
    for (auto& rule : seeded.rules) emit(std::move(rule));
    for (auto& a : seeded.new_atoms) derived.push_back(std::move(a));

    // The per-call groundings each respect `limits_`; also bound the
    // composed totals so a fragment explosion surfaces the same way the
    // monolithic path would.
    if (rule_count > limits_.max_rules) {
        throw asp::GroundingError("grounding exceeded max_rules limit");
    }
    if (derived.size() > limits_.max_atoms) {
        throw asp::GroundingError("grounding exceeded max_atoms limit");
    }
    return derived;
}

MemoizedGrounding::Root MemoizedGrounding::ground_root(const cfg::ParseNode& tree) {
    Root out;
    out.key = make_key(tree);
    if (std::optional<bool> verdict = memo_->find_verdict(out.key)) {
        ++local_hits_;
        ++local_sat_hits_;
        out.verdict = *verdict;
        return out;
    }
    ++local_misses_;
    // At the parse root the relative names are absolute, so the composed
    // rules intern directly into the solver program (each atom moved in,
    // not copied); the root keeps no fragment of its own.
    auto program = std::make_shared<asp::GroundProgram>();
    compose(tree, [&](asp::AtomRule&& rule) {
        asp::GroundRule ground_rule;
        if (rule.head) ground_rule.head = program->intern(std::move(*rule.head));
        ground_rule.pos.reserve(rule.pos.size());
        for (auto& a : rule.pos) ground_rule.pos.push_back(program->intern(std::move(a)));
        ground_rule.neg.reserve(rule.neg.size());
        for (auto& a : rule.neg) ground_rule.neg.push_back(program->intern(std::move(a)));
        program->add_rule(std::move(ground_rule));
    });
    out.program = std::move(program);
    return out;
}

void MemoizedGrounding::store_verdict(const Root& root, bool satisfiable) {
    memo_->store_verdict(root.key, satisfiable);
}

}  // namespace agenp::asg
