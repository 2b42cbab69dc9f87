#include "asg/membership.hpp"

#include "asg/memo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace agenp::asg {

namespace {

// Flushed once per membership query; the per-tree loop stays atomics-free.
void publish(const MembershipResult& result, std::size_t asp_checks) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    static obs::Counter& checks = m.counter("asg.membership.checks");
    static obs::Counter& trees = m.counter("asg.membership.trees_checked");
    static obs::Counter& solver_calls = m.counter("asg.membership.asp_checks");
    static obs::Counter& accepted = m.counter("asg.membership.accepted");
    static obs::Counter& limited = m.counter("asg.membership.resource_limited");
    checks.add(1);
    trees.add(static_cast<std::uint64_t>(result.trees_checked));
    solver_calls.add(asp_checks);
    if (result.in_language) accepted.add(1);
    if (result.resource_limited) limited.add(1);
}

}  // namespace

MembershipResult check_membership(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                                  const asp::Program& context, const MembershipOptions& options) {
    static const obs::PhaseSite kMembership("asg.membership");
    static const obs::PhaseSite kGround("asp.ground");
    obs::Phase phase(kMembership);

    MembershipResult result;
    std::size_t asp_checks = 0;
    auto trees = cfg::parse_trees(grammar.grammar(), tokens, options.parse);
    // One memo view per query: the gate and the context fingerprint are
    // computed once; `usable()` is false when no memo was supplied or the
    // gate rejected this grammar + context (plain path below).
    MemoizedGrounding memoized(options.memo, grammar, context, options.grounding);
    for (const auto& tree : trees) {
        ++result.trees_checked;
        bool use_memo = memoized.usable() && !tree.is_leaf();
        // The plain path instantiates G[PT] up front; the memo path does
        // the same renaming node by node while it composes the tree.
        asp::Program program;
        if (!use_memo) program = instantiate(grammar, tree, context);
        MemoizedGrounding::Root root;
        asp::GroundProgram plain;
        {
            obs::Phase ground(kGround);
            if (use_memo) {
                root = memoized.ground_root(tree);
            } else {
                plain = asp::ground(program, options.grounding);
            }
        }
        if (root.verdict.has_value()) {
            if (*root.verdict) {
                result.in_language = true;
                publish(result, asp_checks);
                return result;
            }
            continue;
        }
        asp::SolveResult solved = asp::solve(use_memo ? *root.program : plain, options.solve);
        ++asp_checks;
        // A resource-limited verdict is not decisive — memoizing it would
        // freeze `resource_limited` semantics into the cache.
        if (use_memo && !solved.exhausted) memoized.store_verdict(root, solved.satisfiable());
        if (solved.satisfiable()) {
            result.in_language = true;
            publish(result, asp_checks);
            return result;
        }
        if (solved.exhausted) result.resource_limited = true;
    }
    publish(result, asp_checks);
    return result;
}

bool in_language(const AnswerSetGrammar& grammar, const cfg::TokenString& tokens,
                 const asp::Program& context, const MembershipOptions& options) {
    return check_membership(grammar, tokens, context, options).in_language;
}

asp::SolveResult solve_tree(const AnswerSetGrammar& grammar, const cfg::ParseNode& tree,
                            const asp::Program& context, const MembershipOptions& options) {
    asp::Program program = instantiate(grammar, tree, context);
    auto gp = asp::ground(program, options.grounding);
    return asp::solve(gp, options.solve);
}

}  // namespace agenp::asg
