// Ground (variable-free) programs in the solver's integer representation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asp/atom.hpp"
#include "asp/atom_table.hpp"

namespace agenp::asp {

inline constexpr AtomId kNoHead = kNoAtom;  // marks a constraint

struct GroundRule {
    AtomId head = kNoHead;
    std::vector<AtomId> pos;  // positive body atoms
    std::vector<AtomId> neg;  // negated body atoms

    [[nodiscard]] bool is_constraint() const { return head == kNoHead; }
};

// Interned ground atoms + rules over their ids. Ground rules are deduped on
// insertion.
class GroundProgram {
public:
    // Interns `atom` (must be ground) and returns its id. Ids are dense and
    // assigned in first-intern order; the rvalue form moves a new atom in.
    AtomId intern(const Atom& atom) { return atoms_.insert(atom).first; }
    AtomId intern(Atom&& atom) { return atoms_.insert(std::move(atom)).first; }

    // Returns the id of `atom` or kNoHead when never interned.
    [[nodiscard]] AtomId find(const Atom& atom) const { return atoms_.find(atom); }

    // Adds a rule; duplicate body ids are dropped (the first occurrence
    // keeps its place) and rules equal up to body order are dropped.
    void add_rule(GroundRule rule);

    [[nodiscard]] const Atom& atom(AtomId id) const { return atoms_[id]; }
    [[nodiscard]] std::size_t atom_count() const { return atoms_.size(); }
    [[nodiscard]] const std::vector<GroundRule>& rules() const { return rules_; }

    [[nodiscard]] std::string to_string() const;

private:
    AtomTable atoms_;
    std::vector<GroundRule> rules_;
    // Order-insensitive dedupe: rule ids keyed by a hash over (head,
    // sorted pos, sorted neg), compared as sets on a hash match.
    HashIndex rule_index_;
    // add_rule's sorted copies of the incoming body, reused across calls.
    std::vector<AtomId> sorted_pos_;
    std::vector<AtomId> sorted_neg_;
};

}  // namespace agenp::asp
