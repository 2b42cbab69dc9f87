#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "asp/grounder.hpp"
#include "asp/parser.hpp"

namespace agenp::asp {
namespace {

// Renders the ground program and checks a line is present.
bool has_line(const GroundProgram& gp, std::string_view line) {
    auto text = gp.to_string();
    std::string needle = std::string(line) + "\n";
    return text.find(needle) != std::string::npos;
}

TEST(Grounder, GroundsFactsVerbatim) {
    auto gp = ground(parse_program("p(a). p(b)."));
    EXPECT_EQ(gp.rules().size(), 2u);
    EXPECT_TRUE(has_line(gp, "p(a)."));
    EXPECT_TRUE(has_line(gp, "p(b)."));
}

TEST(Grounder, InstantiatesVariablesOverDerivedAtoms) {
    auto gp = ground(parse_program("p(a). p(b). q(X) :- p(X)."));
    EXPECT_TRUE(has_line(gp, "q(a) :- p(a)."));
    EXPECT_TRUE(has_line(gp, "q(b) :- p(b)."));
}

TEST(Grounder, JoinsSharedVariables) {
    auto gp = ground(parse_program(R"(
        e(1, 2). e(2, 3).
        path(X, Z) :- e(X, Y), e(Y, Z).
    )"));
    EXPECT_TRUE(has_line(gp, "path(1,3) :- e(1,2), e(2,3)."));
    // No join on mismatched middles:
    EXPECT_FALSE(has_line(gp, "path(1,2) :- e(1,2), e(1,2)."));
}

TEST(Grounder, RecursiveRulesReachFixpoint) {
    auto gp = ground(parse_program(R"(
        e(1, 2). e(2, 3). e(3, 4).
        r(X, Y) :- e(X, Y).
        r(X, Z) :- r(X, Y), e(Y, Z).
    )"));
    EXPECT_TRUE(has_line(gp, "r(1,4) :- r(1,3), e(3,4)."));
}

TEST(Grounder, EvaluatesBuiltinsDuringInstantiation) {
    auto gp = ground(parse_program("n(1). n(2). n(3). big(X) :- n(X), X >= 2."));
    EXPECT_FALSE(has_line(gp, "big(1) :- n(1)."));
    EXPECT_TRUE(has_line(gp, "big(2) :- n(2)."));
    EXPECT_TRUE(has_line(gp, "big(3) :- n(3)."));
}

TEST(Grounder, EqualityBinderComputesValues) {
    auto gp = ground(parse_program("n(2). m(Y) :- n(X), Y = X * 10."));
    EXPECT_TRUE(has_line(gp, "m(20) :- n(2)."));
}

TEST(Grounder, BinderOnlyRuleFiresOnce) {
    auto gp = ground(parse_program("p(X) :- X = 3 + 4."));
    EXPECT_TRUE(has_line(gp, "p(7)."));
}

TEST(Grounder, DropsNegationOnUnderivableAtoms) {
    // q can never be derived, so "not q" simplifies away.
    auto gp = ground(parse_program("p :- not q."));
    EXPECT_TRUE(has_line(gp, "p."));
}

TEST(Grounder, KeepsNegationOnDerivableAtoms) {
    auto gp = ground(parse_program("q :- not p. p :- not q."));
    EXPECT_TRUE(has_line(gp, "q :- not p."));
    EXPECT_TRUE(has_line(gp, "p :- not q."));
}

TEST(Grounder, InstantiatesConstraints) {
    auto gp = ground(parse_program("p(a). p(b). :- p(X)."));
    EXPECT_TRUE(has_line(gp, ":- p(a)."));
    EXPECT_TRUE(has_line(gp, ":- p(b)."));
}

TEST(Grounder, ConstraintWithComparisonFiltersInstances) {
    auto gp = ground(parse_program("n(1). n(5). :- n(X), X > 3."));
    EXPECT_FALSE(has_line(gp, ":- n(1)."));
    EXPECT_TRUE(has_line(gp, ":- n(5)."));
}

TEST(Grounder, RejectsUnsafeRule) {
    EXPECT_THROW(ground(parse_program("p(X) :- not q(X).")), GroundingError);
}

TEST(Grounder, RejectsUnsafeComparisonVariable) {
    EXPECT_THROW(ground(parse_program("p :- X > 3.")), GroundingError);
}

TEST(Grounder, UnsafeRuleCarriesStructuredDiagnostics) {
    try {
        ground(parse_program("q(1). p(X) :- not q(X)."));
        FAIL() << "expected GroundingError";
    } catch (const GroundingError& e) {
        ASSERT_EQ(e.diagnostics.size(), 1u);
        const auto& d = e.diagnostics[0];
        EXPECT_EQ(d.code, analysis::codes::kUnsafeVariable);
        EXPECT_EQ(d.severity, analysis::Severity::Error);
        EXPECT_EQ(d.location.rule, 1);
        EXPECT_NE(d.message.find("X"), std::string::npos);
        EXPECT_NE(d.location.context.find("p(X)"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("unsafe variable X"), std::string::npos);
    }
}

TEST(Grounder, ReportsEveryUnsafeVariableAcrossRules) {
    try {
        ground(parse_program("a(X) :- not b(X). c :- Y > 0, Z > 1."));
        FAIL() << "expected GroundingError";
    } catch (const GroundingError& e) {
        ASSERT_EQ(e.diagnostics.size(), 3u);  // X in rule 0, Y and Z in rule 1
        EXPECT_EQ(e.diagnostics[0].location.rule, 0);
        EXPECT_EQ(e.diagnostics[1].location.rule, 1);
        EXPECT_EQ(e.diagnostics[2].location.rule, 1);
        EXPECT_NE(e.diagnostics[1].message.find("Y"), std::string::npos);
        EXPECT_NE(e.diagnostics[2].message.find("Z"), std::string::npos);
    }
}

TEST(Grounder, LimitErrorsCarryNoDiagnostics) {
    GroundingLimits limits;
    limits.max_atoms = 5;
    try {
        ground(parse_program("n(0). n(Y) :- n(X), Y = X + 1, X < 100."), limits);
        FAIL() << "expected GroundingError";
    } catch (const GroundingError& e) {
        EXPECT_TRUE(e.diagnostics.empty());
    }
}

TEST(Grounder, EnforcesAtomLimit) {
    GroundingLimits limits;
    limits.max_atoms = 10;
    EXPECT_THROW(ground(parse_program(R"(
        n(0).
        n(Y) :- n(X), Y = X + 1, X < 100.
    )"), limits), GroundingError);
}

TEST(Grounder, ArithmeticChainTerminatesWithGuard) {
    auto gp = ground(parse_program(R"(
        n(0).
        n(Y) :- n(X), Y = X + 1, X < 5.
    )"));
    // n(0)..n(5) plus five derivation rules
    EXPECT_TRUE(has_line(gp, "n(5) :- n(4)."));
    EXPECT_FALSE(has_line(gp, "n(6) :- n(5)."));
}

TEST(Grounder, DuplicateGroundRulesAreMerged) {
    auto gp = ground(parse_program("p(a). q :- p(a). q :- p(a)."));
    auto text = gp.to_string();
    auto first = text.find("q :- p(a).");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("q :- p(a).", first + 1), std::string::npos);
}

TEST(Grounder, CompoundTermsFlowThroughJoins) {
    auto gp = ground(parse_program(R"(
        holds(pair(a, b)).
        left(X) :- holds(pair(X, Y)).
    )"));
    EXPECT_TRUE(has_line(gp, "left(a) :- holds(pair(a,b))."));
}

TEST(Grounder, EmptyProgramGroundsToEmpty) {
    auto gp = ground(Program{});
    EXPECT_EQ(gp.rules().size(), 0u);
    EXPECT_EQ(gp.atom_count(), 0u);
}

// --- GroundProgram: the interned atom table and rule dedupe ---------------

Atom num_atom(std::string_view pred, std::int64_t n) { return Atom(pred, {Term::integer(n)}); }

TEST(GroundProgram, IdsStayDenseInFirstInternOrderAcrossGrowth) {
    GroundProgram gp;
    constexpr int kAtoms = 10000;  // many doublings of the table and its index
    for (int i = 0; i < kAtoms; ++i) {
        ASSERT_EQ(gp.intern(num_atom("p", i)), i);
        if (i % 7 == 0) {
            ASSERT_EQ(gp.intern(num_atom("p", i / 2)), i / 2);  // re-intern: same id
        }
    }
    Atom moved = num_atom("q", 0);
    EXPECT_EQ(gp.intern(std::move(moved)), kAtoms);
    EXPECT_EQ(gp.atom_count(), static_cast<std::size_t>(kAtoms) + 1);
    for (int i = 0; i < kAtoms; i += 997) EXPECT_EQ(gp.atom(i), num_atom("p", i));
    EXPECT_EQ(gp.atom(kAtoms), num_atom("q", 0));
}

TEST(GroundProgram, FindReturnsKnownIdsAndNoHeadForUnknownAtoms) {
    GroundProgram gp;
    for (int i = 0; i < 100; ++i) gp.intern(num_atom("p", i));
    EXPECT_EQ(gp.find(num_atom("p", 0)), 0);
    EXPECT_EQ(gp.find(num_atom("p", 57)), 57);
    EXPECT_EQ(gp.find(num_atom("p", 100)), kNoHead);
    EXPECT_EQ(gp.find(num_atom("q", 5)), kNoHead);
    EXPECT_EQ(gp.find(Atom("p", {})), kNoHead);
    EXPECT_EQ(gp.atom_count(), 100u);  // find never interns
}

TEST(GroundProgram, AddRuleCollapsesBodyOrderAndDuplicateLiterals) {
    GroundProgram gp;
    AtomId h = gp.intern(Atom("h", {}));
    AtomId a = gp.intern(Atom("a", {}));
    AtomId b = gp.intern(Atom("b", {}));
    AtomId c = gp.intern(Atom("c", {}));
    AtomId d = gp.intern(Atom("d", {}));
    gp.add_rule({h, {b, a, b, a}, {d, c, d}});
    gp.add_rule({h, {a, b}, {c, d}});        // same rule up to body order
    gp.add_rule({h, {a, a, b}, {c, c, d}});  // ... and duplicate literals
    ASSERT_EQ(gp.rules().size(), 1u);
    // The first occurrence is kept, deduped in first-occurrence order.
    EXPECT_EQ(gp.rules()[0].pos, (std::vector<AtomId>{b, a}));
    EXPECT_EQ(gp.rules()[0].neg, (std::vector<AtomId>{d, c}));
    EXPECT_EQ(gp.to_string(), "h :- b, a, not d, not c.\n");

    gp.add_rule({h, {a}, {c, d}});  // a strict subset of the body is a new rule
    EXPECT_EQ(gp.rules().size(), 2u);
}

TEST(GroundProgram, ConstraintsAndNegationAreNotMergedWithLookalikes) {
    GroundProgram gp;
    AtomId p = gp.intern(Atom("p", {}));
    AtomId q = gp.intern(Atom("q", {}));
    gp.add_rule({p, {q}, {}});        // p :- q.
    gp.add_rule({kNoHead, {q}, {}});  // :- q.
    gp.add_rule({p, {}, {q}});        // p :- not q.
    gp.add_rule({kNoHead, {}, {q}});  // :- not q.
    gp.add_rule({p, {q}, {}});        // repeat: dropped
    EXPECT_EQ(gp.rules().size(), 4u);
    EXPECT_EQ(gp.to_string(), "p :- q.\n:- q.\np :- not q.\n:- not q.\n");
}

// --- ground_seeded: the memo's compositional entry point -------------------

std::vector<std::string> rule_strings(const SeededGrounding& g) {
    std::vector<std::string> out;
    for (const auto& r : g.rules) {
        std::string text = r.head ? r.head->to_string() : "";
        std::string sep = " :- ";
        for (const auto& a : r.pos) text += std::exchange(sep, ", ") + a.to_string();
        for (const auto& a : r.neg) text += std::exchange(sep, ", ") + "not " + a.to_string();
        out.push_back(text);
    }
    return out;
}

TEST(GroundSeeded, SeedsAreNotReEmittedAsRules) {
    auto g = ground_seeded(parse_program("q(X) :- s(X)."), {num_atom("s", 1), num_atom("s", 2)});
    EXPECT_EQ(rule_strings(g), (std::vector<std::string>{"q(1) :- s(1)", "q(2) :- s(2)"}));
}

TEST(GroundSeeded, NewAtomsAreTheNonSeedHeadsInDerivationOrder) {
    auto g = ground_seeded(parse_program(R"(
        r(X) :- q(X).
        q(X) :- s(X).
        s(1) :- r(1).
        t.
    )"),
                           {num_atom("s", 1), num_atom("s", 2)});
    std::vector<std::string> names;
    for (const auto& a : g.new_atoms) names.push_back(a.to_string());
    // s(1) is derived again but is a seed: its rule is emitted, the atom is
    // not new.
    EXPECT_EQ(names, (std::vector<std::string>{"t", "q(1)", "q(2)", "r(1)", "r(2)"}));
    auto rules = rule_strings(g);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "s(1) :- r(1)"), rules.end());
}

TEST(GroundSeeded, NegationKeepsSeedsAndDropsUnderivableAtoms) {
    auto g = ground_seeded(parse_program("p :- not s(1), not u."), {num_atom("s", 1)});
    EXPECT_EQ(rule_strings(g), (std::vector<std::string>{"p :- not s(1)"}));
    EXPECT_EQ(g.new_atoms, (std::vector<Atom>{Atom("p", {})}));
}

TEST(GroundSeeded, MaxAtomsCountsSeeds) {
    std::vector<Atom> seeds = {num_atom("s", 1), num_atom("s", 2), num_atom("s", 3)};
    GroundingLimits limits;
    limits.max_atoms = 3;  // the seeds fill it; the one derived head exceeds it
    EXPECT_THROW(ground_seeded(parse_program("a."), seeds, limits), GroundingError);
    limits.max_atoms = 4;
    EXPECT_EQ(ground_seeded(parse_program("a."), seeds, limits).new_atoms.size(), 1u);
}

}  // namespace
}  // namespace agenp::asp
