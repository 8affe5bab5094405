#include "logic/parser.h"

#include <cctype>
#include <unordered_set>
#include <vector>

#include "base/check.h"

namespace bddfc {
namespace {

enum class TokKind {
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kArrow,     // ->
  kTurnstile, // :-
  kQuestion,
  kLBracket,
  kRBracket,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  int line;
  int column;  // 1-based column of the token's first character
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Token Next() {
    SkipSpaceAndComments();
    const int col = Column();
    if (pos_ >= input_.size()) return {TokKind::kEnd, "", line_, col};
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '\'')) {
        ++pos_;
      }
      return {TokKind::kIdent, std::string(input_.substr(start, pos_ - start)),
              line_, col};
    }
    ++pos_;
    switch (c) {
      case '(':
        return {TokKind::kLParen, "(", line_, col};
      case ')':
        return {TokKind::kRParen, ")", line_, col};
      case ',':
        return {TokKind::kComma, ",", line_, col};
      case '.':
        return {TokKind::kDot, ".", line_, col};
      case '?':
        return {TokKind::kQuestion, "?", line_, col};
      case '[':
        return {TokKind::kLBracket, "[", line_, col};
      case ']':
        return {TokKind::kRBracket, "]", line_, col};
      case '-':
        if (pos_ < input_.size() && input_[pos_] == '>') {
          ++pos_;
          return {TokKind::kArrow, "->", line_, col};
        }
        break;
      case ':':
        if (pos_ < input_.size() && input_[pos_] == '-') {
          ++pos_;
          return {TokKind::kTurnstile, ":-", line_, col};
        }
        break;
      default:
        break;
    }
    return {TokKind::kEnd, std::string(1, c), line_, col};
  }

 private:
  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  void SkipSpaceAndComments() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#' || c == '%') {
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;
  int line_ = 1;
};

// How identifiers inside atom argument lists are interpreted.
enum class TermMode { kVariables, kConstants, kQuery };

class ParserImpl {
 public:
  ParserImpl(Universe* universe, std::string_view text)
      : universe_(universe), lexer_(text) {
    Advance();
  }

  bool failed() const { return failed_; }
  const ParseError& error() const { return error_; }
  bool AtEnd() const { return cur_.kind == TokKind::kEnd && cur_.text.empty(); }

  void Advance() { cur_ = lexer_.Next(); }

  bool Expect(TokKind kind, const char* what) {
    if (cur_.kind != kind) {
      Fail(std::string("expected ") + what + " but found '" + cur_.text + "'");
      return false;
    }
    Advance();
    return true;
  }

  void Fail(std::string message) {
    FailAt(std::move(message), cur_.line, cur_.column);
  }

  void FailAt(std::string message, int line, int column) {
    if (!failed_) {
      failed_ = true;
      error_ = {std::move(message), line, column};
    }
  }

  Term MakeTerm(const std::string& name, TermMode mode) {
    switch (mode) {
      case TermMode::kVariables:
        return universe_->InternVariable(name);
      case TermMode::kConstants:
        return universe_->InternConstant(name);
      case TermMode::kQuery:
        return QueryTerm(name);
    }
    return Term();
  }

  Term QueryTerm(const std::string& name);

  // Parses `P(t1,...,tn)` or a bare nullary `P`.
  std::optional<Atom> ParseAtom(TermMode mode) {
    if (cur_.kind != TokKind::kIdent) {
      Fail("expected predicate name, found '" + cur_.text + "'");
      return std::nullopt;
    }
    std::string pred_name = cur_.text;
    const int pred_line = cur_.line;
    const int pred_column = cur_.column;
    Advance();
    std::vector<Term> args;
    if (cur_.kind == TokKind::kLParen) {
      Advance();
      if (cur_.kind != TokKind::kRParen) {
        for (;;) {
          if (cur_.kind != TokKind::kIdent) {
            Fail("expected term, found '" + cur_.text + "'");
            return std::nullopt;
          }
          args.push_back(MakeTerm(cur_.text, mode));
          Advance();
          if (cur_.kind == TokKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (!Expect(TokKind::kRParen, "')'")) return std::nullopt;
    }
    PredicateId existing = universe_->FindPredicate(pred_name);
    if (existing != Universe::kNoPredicate &&
        universe_->ArityOf(existing) != static_cast<int>(args.size())) {
      FailAt("predicate '" + pred_name + "' used with arity " +
                 std::to_string(args.size()) + " but declared with arity " +
                 std::to_string(universe_->ArityOf(existing)),
             pred_line, pred_column);
      return std::nullopt;
    }
    PredicateId pred = universe_->InternPredicate(
        pred_name, static_cast<int>(args.size()));
    return Atom(pred, std::move(args));
  }

  // Parses a comma-separated list of atoms, stopping before `stop` tokens.
  std::optional<std::vector<Atom>> ParseAtomList(TermMode mode) {
    std::vector<Atom> atoms;
    for (;;) {
      auto atom = ParseAtom(mode);
      if (!atom) return std::nullopt;
      atoms.push_back(std::move(*atom));
      if (cur_.kind == TokKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return atoms;
  }

  std::optional<Rule> ParseOneRule() {
    std::string label;
    if (cur_.kind == TokKind::kLBracket) {
      Advance();
      if (cur_.kind != TokKind::kIdent) {
        Fail("expected rule label");
        return std::nullopt;
      }
      label = cur_.text;
      Advance();
      if (!Expect(TokKind::kRBracket, "']'")) return std::nullopt;
    }
    auto body = ParseAtomList(TermMode::kVariables);
    if (!body) return std::nullopt;
    if (!Expect(TokKind::kArrow, "'->'")) return std::nullopt;
    auto head = ParseAtomList(TermMode::kVariables);
    if (!head) return std::nullopt;
    if (cur_.kind == TokKind::kDot) Advance();
    return Rule(std::move(*body), std::move(*head), std::move(label));
  }

  std::optional<Cq> ParseOneCq() {
    if (!Expect(TokKind::kQuestion, "'?'")) return std::nullopt;
    struct AnswerName {
      std::string name;
      int line;
      int column;
    };
    std::vector<AnswerName> answer_names;
    std::unordered_set<std::string> answer_name_set;
    if (cur_.kind == TokKind::kLParen) {
      Advance();
      if (cur_.kind != TokKind::kRParen) {
        for (;;) {
          if (cur_.kind != TokKind::kIdent) {
            Fail("expected answer variable");
            return std::nullopt;
          }
          if (!answer_name_set.insert(cur_.text).second) {
            Fail("duplicate answer variable '" + cur_.text + "'");
            return std::nullopt;
          }
          answer_names.push_back({cur_.text, cur_.line, cur_.column});
          Advance();
          if (cur_.kind == TokKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (!Expect(TokKind::kRParen, "')'")) return std::nullopt;
    }
    if (!Expect(TokKind::kTurnstile, "':-'")) return std::nullopt;
    auto atoms = ParseAtomList(TermMode::kQuery);
    if (!atoms) return std::nullopt;
    // Every answer variable must occur (as a variable — constants resolved
    // by TermMode::kQuery don't count) in some body atom.
    std::unordered_set<Term> body_vars;
    for (const Atom& atom : *atoms) {
      for (Term t : atom.args()) {
        if (t.IsVariable()) body_vars.insert(t);
      }
    }
    std::vector<Term> answers;
    answers.reserve(answer_names.size());
    for (const AnswerName& answer : answer_names) {
      Term v = universe_->InternVariable(answer.name);
      if (body_vars.find(v) == body_vars.end()) {
        FailAt("answer variable '" + answer.name +
                   "' does not occur in the query body",
               answer.line, answer.column);
        return std::nullopt;
      }
      answers.push_back(v);
    }
    if (cur_.kind == TokKind::kDot) Advance();
    return Cq(std::move(*atoms), std::move(answers));
  }

  Universe* universe_;
  Lexer lexer_;
  Token cur_{TokKind::kEnd, "", 0, 0};
  bool failed_ = false;
  ParseError error_;
};

Term ParserImpl::QueryTerm(const std::string& name) {
  // A query identifier denotes a constant iff that constant name is already
  // interned (e.g. by a previously parsed instance); otherwise it is a
  // query variable.
  Term maybe_const = universe_->FindConstant(name);
  if (maybe_const.IsValid()) return maybe_const;
  return universe_->InternVariable(name);
}

}  // namespace

std::optional<Rule> ParseRule(Universe* universe, std::string_view text,
                              ParseError* error) {
  ParserImpl p(universe, text);
  auto rule = p.ParseOneRule();
  if (!rule || p.failed()) {
    if (error) *error = p.error();
    return std::nullopt;
  }
  return rule;
}

std::optional<RuleSet> ParseRuleSet(Universe* universe, std::string_view text,
                                    ParseError* error) {
  RuleSet rules;
  ParserImpl p(universe, text);
  while (!p.AtEnd()) {
    auto rule = p.ParseOneRule();
    if (!rule || p.failed()) {
      if (error) *error = p.error();
      return std::nullopt;
    }
    rules.push_back(std::move(*rule));
  }
  return rules;
}

std::optional<Instance> ParseInstance(Universe* universe,
                                      std::string_view text,
                                      ParseError* error) {
  Instance instance(universe);
  ParserImpl p(universe, text);
  while (!p.AtEnd()) {
    auto atom = p.ParseAtom(TermMode::kConstants);
    if (!atom || p.failed()) {
      if (error) *error = p.error();
      return std::nullopt;
    }
    instance.AddAtom(*atom);
    if (p.cur_.kind == TokKind::kDot) p.Advance();
  }
  return instance;
}

std::optional<Cq> ParseCq(Universe* universe, std::string_view text,
                          ParseError* error) {
  ParserImpl p(universe, text);
  auto cq = p.ParseOneCq();
  if (!cq || p.failed()) {
    if (error) *error = p.error();
    return std::nullopt;
  }
  return cq;
}

std::optional<std::vector<Cq>> ParseCqList(Universe* universe,
                                           std::string_view text,
                                           ParseError* error) {
  std::vector<Cq> queries;
  ParserImpl p(universe, text);
  while (!p.AtEnd()) {
    auto cq = p.ParseOneCq();
    if (!cq || p.failed()) {
      if (error) *error = p.error();
      return std::nullopt;
    }
    queries.push_back(std::move(*cq));
  }
  return queries;
}

Rule MustParseRule(Universe* universe, std::string_view text) {
  ParseError error;
  auto rule = ParseRule(universe, text, &error);
  if (!rule) {
    std::fprintf(stderr, "ParseRule failed (line %d:%d): %s\n", error.line,
                 error.column, error.message.c_str());
  }
  BDDFC_CHECK(rule.has_value());
  return *rule;
}

RuleSet MustParseRuleSet(Universe* universe, std::string_view text) {
  ParseError error;
  auto rules = ParseRuleSet(universe, text, &error);
  if (!rules) {
    std::fprintf(stderr, "ParseRuleSet failed (line %d:%d): %s\n", error.line,
                 error.column, error.message.c_str());
  }
  BDDFC_CHECK(rules.has_value());
  return *rules;
}

Instance MustParseInstance(Universe* universe, std::string_view text) {
  ParseError error;
  auto instance = ParseInstance(universe, text, &error);
  if (!instance) {
    std::fprintf(stderr, "ParseInstance failed (line %d:%d): %s\n", error.line,
                 error.column, error.message.c_str());
  }
  BDDFC_CHECK(instance.has_value());
  return *instance;
}

Cq MustParseCq(Universe* universe, std::string_view text) {
  ParseError error;
  auto cq = ParseCq(universe, text, &error);
  if (!cq) {
    std::fprintf(stderr, "ParseCq failed (line %d:%d): %s\n", error.line,
                 error.column, error.message.c_str());
  }
  BDDFC_CHECK(cq.has_value());
  return *cq;
}

}  // namespace bddfc
