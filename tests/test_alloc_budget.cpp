// Allocation budget of the membership miss path. A novel-root query with
// the grounding memo on (the serve_cold path: inner fragments recalled,
// the root composed, ground and solved) must stay within a fixed number of
// global `operator new` calls, so a change that reintroduces per-atom deep
// copies fails here rather than only in a 30 s throughput run.
//
// The binary replaces the global `operator new` to count calls made on the
// test thread. ASan and TSan ship their own `operator new`, so under either
// the replacement is left out and the test skips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "asg/asg.hpp"
#include "asg/membership.hpp"
#include "asg/memo.hpp"
#include "asp/parser.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AGENP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AGENP_ALLOC_COUNTING 0
#endif
#endif
#ifndef AGENP_ALLOC_COUNTING
#define AGENP_ALLOC_COUNTING 1
#endif

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

}  // namespace

#if AGENP_ALLOC_COUNTING
// Array, nothrow and sized forms route through these two in libstdc++;
// the aligned forms use aligned_alloc and are not counted.
void* operator new(std::size_t size) {
    if (t_counting) ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace agenp::asg {
namespace {

// Operator-new calls of one novel-root query before the flat atom table
// (GroundProgram and the grounder kept several deep copies per atom).
constexpr std::size_t kParentAllocations = 12661;
// The budget: at most half of that.
constexpr std::size_t kBudget = kParentAllocations / 2;

// serve_cold's policy shape, smaller: three children with 16 alternatives
// each under a root that joins the context's load/1 facts pairwise.
constexpr int kAlternatives = 16;

AnswerSetGrammar compositional_grammar() {
    std::string text =
        "request -> \"do\" task \"in\" zone \"by\" unit {\n"
        "  :- requires(L)@2, maxloa(M), L > M.\n"
        "  :- risk(R)@4, cover(C)@6, R > C + 2.\n"
        "  stress(X, Y) :- load(X), load(Y).\n"
        "}\n";
    for (int i = 0; i < kAlternatives; ++i) {
        auto n = std::to_string(i);
        text += "task -> \"task_" + n + "\" { requires(" + std::to_string(i % 5 + 1) + "). }\n";
        text += "zone -> \"zone_" + n + "\" { risk(" + std::to_string(i % 6) + "). }\n";
        text += "unit -> \"unit_" + n + "\" { cover(" + std::to_string(i % 4) + "). }\n";
    }
    return AnswerSetGrammar::parse(text);
}

asp::Program compositional_context() {
    std::string text = "maxloa(3).\n";
    for (int i = 1; i <= 24; ++i) text += "load(" + std::to_string(i) + ").\n";
    return asp::parse_program(text);
}

cfg::TokenString sentence(int task, int zone, int unit) {
    return cfg::tokenize("do task_" + std::to_string(task) + " in zone_" + std::to_string(zone) +
                         " by unit_" + std::to_string(unit));
}

TEST(AllocBudget, NovelRootMembershipQuery) {
    if (!AGENP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer runtimes replace operator new";

    auto grammar = compositional_grammar();
    auto context = compositional_context();
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;

    // Warm-up: the diagonal grounds every inner fragment, and one
    // off-diagonal query warms the per-thread scratch and the symbol table.
    for (int i = 0; i < kAlternatives; ++i) check_membership(grammar, sentence(i, i, i), context, options);
    ASSERT_TRUE(in_language(grammar, sentence(0, 1, 2), context, options));

    auto novel = sentence(1, 2, 3);
    t_allocations = 0;
    t_counting = true;
    auto result = check_membership(grammar, novel, context, options);
    t_counting = false;
    std::size_t allocations = t_allocations;

    EXPECT_TRUE(result.in_language);
    EXPECT_EQ(result.trees_checked, 1);
    EXPECT_EQ(memo.stats().sat_hits, 0u);  // the root was novel: ground and solved
    RecordProperty("allocations", static_cast<int>(allocations));
    std::printf("novel-root membership query: %zu operator new calls (budget %zu)\n", allocations,
                kBudget);
    EXPECT_LE(allocations, kBudget);
}

}  // namespace
}  // namespace agenp::asg
