// The grounding memo (asg/memo.hpp): memo-on results must be identical to
// the plain instantiate + ground + solve path, entries must invalidate
// lazily on an epoch (model version) bump, the soundness gate must reject
// annotated heads, parse roots must keep only verdicts, and the sharded
// table must survive concurrent use with concurrent epoch bumps (the TSan
// job runs this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "asg/asg.hpp"
#include "asg/membership.hpp"
#include "asg/memo.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "util/rng.hpp"

namespace agenp::asg {
namespace {

using cfg::tokenize;

const char* kTaskAsg = R"(
    request -> "do" task {
        :- requires(L)@2, maxloa(M), L > M.
    }
    task -> "patrol" { requires(2). }
    task -> "strike" { requires(4). }
)";

const char* kAnBn = R"(
    s -> as bs {
        :- size(N)@1, size(M)@2, N != M.
    }
    as -> "a" as {
        size(N) :- size(M)@2, N = M + 1.
    }
    as -> epsilon {
        size(0).
    }
    bs -> "b" bs {
        size(N) :- size(M)@2, N = M + 1.
    }
    bs -> epsilon {
        size(0).
    }
)";

// Three children with 16 alternatives each under a root that joins the
// context's load/1 facts pairwise: 4,096 sentences, each with one parse
// tree. Roots are all distinct; the 48 inner fragments are shared.
constexpr int kAlternatives = 16;
constexpr std::size_t kInnerFragments = 3 * kAlternatives;

AnswerSetGrammar compositional_grammar() {
    std::string text =
        "request -> \"do\" task \"in\" zone \"by\" unit {\n"
        "  :- requires(L)@2, maxloa(M), L > M.\n"
        "  :- risk(R)@4, cover(C)@6, R > C + 2.\n"
        "  stress(X, Y) :- load(X), load(Y).\n"
        "  :- stress(X, Y), cover(C)@6, X + Y + C > 18.\n"
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
    for (int i = 1; i <= 8; ++i) text += "load(" + std::to_string(i) + ").\n";
    return asp::parse_program(text);
}

cfg::TokenString sentence(int task, int zone, int unit) {
    return tokenize("do task_" + std::to_string(task) + " in zone_" + std::to_string(zone) +
                    " by unit_" + std::to_string(unit));
}

// The diagonal (i, i, i) grounds every inner fragment; the rest are 600
// seeded off-diagonal sentences, so every root is novel.
struct Sentences {
    std::vector<cfg::TokenString> diagonal;
    std::vector<cfg::TokenString> novel;
};

Sentences compositional_sentences() {
    Sentences out;
    std::vector<int> off_diagonal;
    for (int i = 0; i < kAlternatives; ++i) out.diagonal.push_back(sentence(i, i, i));
    for (int code = 0; code < kAlternatives * kAlternatives * kAlternatives; ++code) {
        int t = code / (kAlternatives * kAlternatives);
        int z = code / kAlternatives % kAlternatives;
        int u = code % kAlternatives;
        if (!(t == z && z == u)) off_diagonal.push_back(code);
    }
    util::Rng rng(12);
    rng.shuffle(off_diagonal);
    off_diagonal.resize(600);
    for (int code : off_diagonal) {
        out.novel.push_back(sentence(code / (kAlternatives * kAlternatives),
                                     code / kAlternatives % kAlternatives, code % kAlternatives));
    }
    return out;
}

TEST(MemoGate, DemoStyleGrammarsPass) {
    auto ctx = asp::parse_program("maxloa(3).");
    EXPECT_TRUE(GroundingMemo::memoizable(AnswerSetGrammar::parse(kTaskAsg), ctx));
    EXPECT_TRUE(GroundingMemo::memoizable(AnswerSetGrammar::parse(kAnBn), {}));
}

TEST(MemoGate, AnnotatedHeadRejectsAndFallsBack) {
    // `mark@1.` derives an atom INTO child 1's namespace: the child's
    // fragment was grounded without it, so compositional grounding is
    // unsound and the gate must force the plain path.
    auto g = AnswerSetGrammar::parse(R"(
        s -> t t {
            mark@1.
            :- mark@1, bad@2.
        }
        t -> "x" { local. }
    )");
    EXPECT_FALSE(GroundingMemo::memoizable(g, {}));

    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    EXPECT_TRUE(in_language(g, tokenize("x x"), {}, options));
    EXPECT_EQ(memo.stats().gate_fallbacks, 1u);
    EXPECT_EQ(memo.stats().misses, 0u);  // never probed
}

TEST(Memo, ResultsMatchPlainPathAcrossWorkload) {
    auto task = AnswerSetGrammar::parse(kTaskAsg);
    auto anbn = AnswerSetGrammar::parse(kAnBn);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");

    GroundingMemo memo;
    MembershipOptions with_memo;
    with_memo.memo = &memo;

    struct Case {
        const AnswerSetGrammar* grammar;
        const asp::Program* context;
        const char* text;
    };
    asp::Program empty;
    std::vector<Case> cases = {
        {&task, &ctx3, "do patrol"}, {&task, &ctx3, "do strike"}, {&task, &ctx5, "do strike"},
        {&task, &ctx3, "do fly"},    {&anbn, &empty, ""},         {&anbn, &empty, "a b"},
        {&anbn, &empty, "a a b b"},  {&anbn, &empty, "a a b"},    {&anbn, &empty, "b a"},
    };
    // Two passes: pass 0 populates the memo (misses), pass 1 serves from
    // it (fragment + verdict hits). Both must agree with the plain path.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& c : cases) {
            bool plain = in_language(*c.grammar, tokenize(c.text), *c.context);
            bool memoized = in_language(*c.grammar, tokenize(c.text), *c.context, with_memo);
            EXPECT_EQ(memoized, plain) << "pass " << pass << " text '" << c.text << "'";
        }
    }
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.insertions, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.sat_hits, 0u);  // pass 1 repeats served by verdict
    EXPECT_EQ(stats.gate_fallbacks, 0u);
}

TEST(Memo, RootProgramMatchesPlainGrounding) {
    // The composed root program must be solver-equivalent to the plain
    // instantiate + ground product for every parse tree.
    auto g = AnswerSetGrammar::parse(kAnBn);
    GroundingMemo memo;
    asp::Program empty_context;  // MemoizedGrounding keeps a reference
    asp::GroundingLimits limits;
    for (const char* text : {"a a a b b b", "a a b", "a b"}) {
        auto trees = cfg::parse_trees(g.grammar(), tokenize(text), {});
        MemoizedGrounding memoized(&memo, g, empty_context, limits);
        ASSERT_TRUE(memoized.usable());
        for (const auto& tree : trees) {
            auto root = memoized.ground_root(tree);
            ASSERT_FALSE(root.verdict.has_value());  // nothing solved yet
            ASSERT_NE(root.program, nullptr);
            asp::SolveResult via_memo = asp::solve(*root.program, {.max_models = 1});
            asp::SolveResult plain = solve_tree(g, tree, {}, {});
            EXPECT_EQ(via_memo.satisfiable(), plain.satisfiable()) << text;
        }
    }
}

TEST(Memo, SecondIdenticalQueryServesVerdictWithoutSolving) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;

    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    std::uint64_t sat_hits_before = memo.stats().sat_hits;
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    EXPECT_GT(memo.stats().sat_hits, sat_hits_before);
}

TEST(Memo, DistinctContextsDoNotCollide) {
    // Same grammar, same string, different contexts — opposite answers.
    // A memo that ignored the context fingerprint would serve the first
    // context's verdict for the second.
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(in_language(g, tokenize("do strike"), ctx3, options));
        EXPECT_TRUE(in_language(g, tokenize("do strike"), ctx5, options));
    }
}

TEST(Memo, EpochBumpInvalidatesLazily) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;

    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    std::uint64_t entries_before = memo.stats().entries;
    ASSERT_GT(entries_before, 0u);

    memo.set_epoch(memo.epoch() + 1);  // model adoption
    // Entries are still resident (lazy invalidation)...
    EXPECT_EQ(memo.stats().entries, entries_before);
    // ...but the next probe under the new epoch erases and re-grounds.
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.invalidations, 0u);
}

TEST(Memo, NovelRequestsAgreeWithPlainPath) {
    auto g = compositional_grammar();
    auto ctx = compositional_context();
    Sentences sentences = compositional_sentences();
    std::vector<cfg::TokenString> all = sentences.diagonal;
    all.insert(all.end(), sentences.novel.begin(), sentences.novel.end());

    GroundingMemo memo;
    MembershipOptions with_memo;
    with_memo.memo = &memo;
    std::size_t permits = 0;
    std::uint64_t sat_hits_after_first_pass = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& tokens : all) {
            bool plain = in_language(g, tokens, ctx);
            bool memoized = in_language(g, tokens, ctx, with_memo);
            EXPECT_EQ(memoized, plain) << "pass " << pass << " '" << cfg::detokenize(tokens) << "'";
            if (pass == 0 && plain) ++permits;
        }
        if (pass == 0) sat_hits_after_first_pass = memo.stats().sat_hits;
    }
    EXPECT_GT(permits, 0u);
    EXPECT_LT(permits, all.size());
    // The second pass is answered from root verdicts alone.
    EXPECT_EQ(memo.stats().sat_hits - sat_hits_after_first_pass, all.size());
}

TEST(Memo, NovelRootsRetainOnlyTheirVerdicts) {
    auto g = compositional_grammar();
    auto ctx = compositional_context();
    Sentences sentences = compositional_sentences();
    GroundingMemo memo;
    MembershipOptions with_memo;
    with_memo.memo = &memo;

    for (const auto& tokens : sentences.diagonal) (void)in_language(g, tokens, ctx, with_memo);
    MemoStats filled = memo.stats();
    ASSERT_EQ(filled.entries, kInnerFragments + sentences.diagonal.size());

    for (const auto& tokens : sentences.novel) (void)in_language(g, tokens, ctx, with_memo);
    MemoStats after = memo.stats();
    std::size_t roots = sentences.diagonal.size() + sentences.novel.size();
    EXPECT_EQ(after.evictions, 0u);
    EXPECT_LE(after.entries, kInnerFragments + roots);
    // A novel root adds one verdict entry: its key, whose preorder shape is
    // the only variable part, and a few words of bookkeeping — never its
    // grounded program.
    std::vector<int> shape;
    cfg::subtree_shape(cfg::parse_trees(g.grammar(), sentences.novel.front()).front(), shape);
    std::size_t verdict_entry_bytes = sizeof(GroundingMemo::Key) + shape.size() * sizeof(int) + 64;
    EXPECT_LE(after.bytes - filled.bytes, sentences.novel.size() * verdict_entry_bytes);
}

TEST(Memo, StartSymbolInsideItsOwnTreesSharesOneEntry) {
    // Every "( ... )" subtree is both an inner fragment of deeper strings
    // and the parse root of its own string, so one entry ends up holding a
    // fragment and a verdict. Shallow-first and deep-first orders exercise
    // both ways round.
    auto g = AnswerSetGrammar::parse(R"asg(
        s -> "(" s ")" {
            depth(N) :- depth(M)@2, N = M + 1.
            :- depth(N), limit(L), N > L.
        }
        s -> "x" { depth(0). }
    )asg");
    auto ctx = asp::parse_program("limit(2).");
    std::vector<const char*> texts = {"( x )", "x", "( ( ( ( x ) ) ) )", "( ( x ) )",
                                      "( ( ( x ) ) )"};
    GroundingMemo memo;
    MembershipOptions with_memo;
    with_memo.memo = &memo;
    MemoStats first;
    for (int pass = 0; pass < 2; ++pass) {
        for (const char* text : texts) {
            bool plain = in_language(g, tokenize(text), ctx);
            EXPECT_EQ(in_language(g, tokenize(text), ctx, with_memo), plain)
                << "pass " << pass << " '" << text << "'";
        }
        if (pass == 0) first = memo.stats();
    }
    EXPECT_EQ(first.entries, texts.size());  // depths 0..4, one entry each
    MemoStats second = memo.stats();
    EXPECT_EQ(second.misses, first.misses);  // every verdict survived its fragment
    EXPECT_EQ(second.sat_hits - first.sat_hits, texts.size());
}

TEST(Memo, TinyBudgetEvictsButStaysCorrect) {
    auto g = AnswerSetGrammar::parse(kAnBn);
    GroundingMemo memo({.capacity_bytes = 512, .shards = 1});
    MembershipOptions options;
    options.memo = &memo;
    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(in_language(g, tokenize("a a a b b b"), {}, options));
        EXPECT_FALSE(in_language(g, tokenize("a a a b b"), {}, options));
        EXPECT_TRUE(in_language(g, tokenize("a a b b"), {}, options));
    }
    MemoStats stats = memo.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, 512u * 1u);  // per-shard budget holds
}

TEST(Memo, ClearEmptiesTheTable) {
    auto g = AnswerSetGrammar::parse(kTaskAsg);
    auto ctx = asp::parse_program("maxloa(3).");
    GroundingMemo memo;
    MembershipOptions options;
    options.memo = &memo;
    ASSERT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
    ASSERT_GT(memo.stats().entries, 0u);
    memo.clear();
    EXPECT_EQ(memo.stats().entries, 0u);
    EXPECT_EQ(memo.stats().bytes, 0u);
    // Still serves correct answers afterwards.
    EXPECT_TRUE(in_language(g, tokenize("do patrol"), ctx, options));
}

// Concurrency hammer for the TSan job: worker threads share one memo
// across overlapping workloads while another thread bumps the epoch —
// the DecisionService shape (workers decide, update_model bumps).
TEST(Memo, ConcurrentQueriesWithEpochBumpsStayCorrect) {
    auto task = AnswerSetGrammar::parse(kTaskAsg);
    auto anbn = AnswerSetGrammar::parse(kAnBn);
    auto ctx3 = asp::parse_program("maxloa(3).");
    auto ctx5 = asp::parse_program("maxloa(5).");
    GroundingMemo memo({.capacity_bytes = 64 * 1024, .shards = 4});

    constexpr int kWorkers = 4;
    constexpr int kRounds = 40;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kWorkers + 1);
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            MembershipOptions options;
            options.memo = &memo;
            for (int i = 0; i < kRounds; ++i) {
                if (in_language(task, tokenize("do strike"), ctx3, options)) ++wrong;
                if (!in_language(task, tokenize("do strike"), ctx5, options)) ++wrong;
                if (!in_language(task, tokenize("do patrol"), ctx3, options)) ++wrong;
                const char* ab = (w + i) % 2 == 0 ? "a a b b" : "a b";
                if (!in_language(anbn, tokenize(ab), {}, options)) ++wrong;
                if (in_language(anbn, tokenize("a b b"), {}, options)) ++wrong;
            }
        });
    }
    std::atomic<bool> stop{false};
    threads.emplace_back([&] {
        std::uint64_t epoch = memo.epoch();
        while (!stop.load(std::memory_order_acquire)) {
            memo.set_epoch(++epoch);
            std::this_thread::yield();
        }
    });
    for (int w = 0; w < kWorkers; ++w) threads[static_cast<std::size_t>(w)].join();
    stop.store(true, std::memory_order_release);
    threads.back().join();
    EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace agenp::asg
