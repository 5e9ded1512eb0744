// Recursive-descent parser for the PASCAL/R query language.
//
// Script grammar (statements end with ';'):
//
//   TYPE name = (label, label, ...);            enumeration type
//   TYPE name = lo..hi;                         integer subrange type
//   TYPE name = STRING(n);                      bounded string type
//   VAR name : RELATION <k1,k2> OF RECORD
//         comp : typeexpr; ... END;             relation declaration
//   target := selection;                        query assignment
//   rel :+ [<lit, lit, ...>];                   insert (PASCAL/R `:+`)
//   rel :- [<lit, ...>];                        delete by key (`:-`)
//   PRINT rel;
//   EXPLAIN selection;
//   PREPARE name AS selection;                  named prepared query
//   EXECUTE name [WITH $p = lit, ...];          run it with parameters
//   INDEX rel component [ORDERED];              permanent component index
//
//   selection  := '[' '<' v.c {',' v.c} '>' OF ranges ':' wff ']'
//   ranges     := EACH v IN range {',' EACH v IN range}
//   range      := rel | '[' EACH v IN rel ':' wff ']'      (extended range)
//   wff        := conj {OR conj}
//   conj       := unary {AND unary}
//   unary      := NOT unary | quant | '(' wff ')' | atom | TRUE | FALSE
//   quant      := (SOME|ALL) v IN range body
//   body       := quant | '(' wff ')'           (paper's juxtaposition form)
//   atom       := operand relop operand
//   operand    := v '.' comp | literal | '$' name   (parameter marker)
//
// The parser is purely syntactic: names are unresolved, enum-label literals
// stay identifiers until the binder types them.

#ifndef PASCALR_PARSER_PARSER_H_
#define PASCALR_PARSER_PARSER_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/status.h"
#include "calculus/ast.h"
#include "parser/token.h"

namespace pascalr {

/// Unresolved component type in a declaration.
struct RawType {
  enum class Kind : uint8_t {
    kNamed,       ///< reference to a TYPE declaration
    kInt,         ///< INTEGER
    kIntRange,    ///< lo..hi
    kString,      ///< STRING or STRING(n)
    kBool,        ///< BOOLEAN
    kInlineEnum,  ///< (a, b, c)
  } kind = Kind::kInt;
  std::string name;
  int64_t lo = 0;
  int64_t hi = 0;
  size_t max_len = 0;
  std::vector<std::string> labels;
};

/// Unresolved literal in an insert/delete tuple.
struct RawLiteral {
  enum class Kind : uint8_t { kInt, kString, kIdent, kBool } kind = Kind::kInt;
  int64_t int_value = 0;
  std::string text;
  bool bool_value = false;
};

struct TypeDeclStmt {
  std::string name;
  RawType type;
};

struct RelationDeclStmt {
  std::string name;
  std::vector<std::string> key_components;
  std::vector<std::pair<std::string, RawType>> components;
};

struct AssignStmt {
  std::string target;
  SelectionExpr selection;
};

struct InsertStmt {
  std::string target;
  std::vector<RawLiteral> values;
};

struct DeleteStmt {
  std::string target;
  std::vector<RawLiteral> key;
};

struct PrintStmt {
  std::string relation;
};

/// `EXPLAIN selection;` renders the plan; `EXPLAIN ANALYZE selection;`
/// additionally executes it and annotates the operator tree with actual
/// rows, per-operator self-time, and estimated-vs-actual q-error.
struct ExplainStmt {
  SelectionExpr selection;
  bool analyze = false;
};

/// `METRICS;` — dumps the session's MetricsRegistry (counters, gauges,
/// latency histograms).
struct MetricsStmt {};

/// `ANALYZE;` refreshes catalog statistics for every relation;
/// `ANALYZE rel;` for one relation.
struct AnalyzeStmt {
  std::string relation;  ///< empty: every relation
};

/// `SET name value;` — session option assignment, e.g.
/// `SET OPTLEVEL AUTO;`, `SET OPTLEVEL 2;`, `SET BATCH 64;`.
struct SetStmt {
  std::string name;   ///< lower-cased option name
  std::string value;  ///< lower-cased identifier or integer spelling
};

/// `PREPARE name AS selection;` — compiles a named prepared query held by
/// the session. The selection may contain `$param` host-variable markers.
struct PrepareStmt {
  std::string name;
  SelectionExpr selection;
};

/// `EXECUTE name [WITH $p = lit, ...];` — runs a prepared query with the
/// given parameter values and prints the result tuples.
struct ExecuteStmt {
  std::string name;
  std::vector<std::pair<std::string, RawLiteral>> params;
};

/// `INDEX rel component [ORDERED];` — declares (and builds) a permanent
/// component index; ORDERED selects a sorted index over a hash index.
/// Emitted by ExportScript so dumps carry their permanent indexes.
struct IndexStmt {
  std::string relation;
  std::string component;
  bool ordered = false;
};

/// One COLUMN clause of a STATS statement.
struct StatsColumnClause {
  std::string component;
  uint64_t distinct = 0;
  bool has_min_max = false;
  RawLiteral min;  ///< typed by the component's schema type at execution
  RawLiteral max;
  bool has_histogram = false;
  int64_t histogram_lo = 0;
  int64_t histogram_hi = 0;
  std::vector<uint64_t> buckets;
};

/// `STATS rel CARDINALITY n COLUMN c DISTINCT d [MIN lit MAX lit]
/// [HISTOGRAM lo hi (b, b, ...)] ... ;` — seeds catalog statistics
/// without a relation scan. Emitted by ExportScript so a reloaded
/// database plans well before its first ANALYZE.
struct StatsStmt {
  std::string relation;
  uint64_t cardinality = 0;
  std::vector<StatsColumnClause> columns;
};

using Statement =
    std::variant<TypeDeclStmt, RelationDeclStmt, AssignStmt, InsertStmt,
                 DeleteStmt, PrintStmt, ExplainStmt, AnalyzeStmt, SetStmt,
                 StatsStmt, PrepareStmt, ExecuteStmt, IndexStmt, MetricsStmt>;

struct Script {
  std::vector<Statement> statements;
};

class Parser {
 public:
  explicit Parser(std::string_view source) : source_(source) {}

  /// Parses a whole script.
  Result<Script> ParseScript();

  /// Parses a single selection expression (no trailing ';').
  Result<SelectionExpr> ParseSelectionOnly();

 private:
  Status Init();
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t n = 1) const {
    size_t i = pos_ + n;
    return tokens_[i < tokens_.size() ? i : tokens_.size() - 1];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Check(TokenType t) const { return Cur().type == t; }
  bool Accept(TokenType t) {
    if (!Check(t)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenType t);
  Status ErrorHere(const std::string& message) const;

  /// Consumes the current token when it is the (case-insensitive)
  /// contextual keyword `word`.
  bool AcceptWord(const char* word);
  Status ExpectWord(const char* word);
  Result<int64_t> ParseSignedInt();
  Result<uint64_t> ParseCount();

  Result<Statement> ParseStatement();
  Result<StatsStmt> ParseStatsBody();
  Result<TypeDeclStmt> ParseTypeDecl();
  Result<RelationDeclStmt> ParseRelationDecl();
  Result<RawType> ParseTypeExpr();
  Result<std::vector<RawLiteral>> ParseTupleLiteral();
  Result<RawLiteral> ParseRawLiteral();

  Result<SelectionExpr> ParseSelection();
  Result<RangeExpr> ParseRange(std::string* bound_var_out);
  Result<FormulaPtr> ParseWff();
  Result<FormulaPtr> ParseConj();
  Result<FormulaPtr> ParseUnary();
  Result<FormulaPtr> ParseQuant();
  Result<Operand> ParseOperand();
  Result<CompareOp> ParseRelop();

  std::string_view source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_PARSER_PARSER_H_
