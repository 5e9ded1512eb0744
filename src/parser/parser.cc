#include "parser/parser.h"

#include "base/counters.h"
#include "base/str_util.h"
#include "parser/lexer.h"

namespace pascalr {

Status Parser::Init() {
  ++GlobalCompileCounters().parses;
  Lexer lexer(source_);
  PASCALR_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  pos_ = 0;
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Cur();
  return Status::ParseError(StrFormat("%d:%d: %s (found %s)", t.line, t.column,
                                      message.c_str(), t.Describe().c_str()));
}

Status Parser::Expect(TokenType t) {
  if (Accept(t)) return Status::OK();
  return ErrorHere("expected " + std::string(TokenTypeToString(t)));
}

Result<Script> Parser::ParseScript() {
  PASCALR_RETURN_IF_ERROR(Init());
  Script script;
  while (!Check(TokenType::kEnd)) {
    PASCALR_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
    script.statements.push_back(std::move(stmt));
  }
  return script;
}

Result<SelectionExpr> Parser::ParseSelectionOnly() {
  PASCALR_RETURN_IF_ERROR(Init());
  PASCALR_ASSIGN_OR_RETURN(SelectionExpr sel, ParseSelection());
  if (!Check(TokenType::kEnd)) {
    return ErrorHere("trailing input after selection");
  }
  return sel;
}

Result<Statement> Parser::ParseStatement() {
  switch (Cur().type) {
    case TokenType::kKwType: {
      PASCALR_ASSIGN_OR_RETURN(TypeDeclStmt s, ParseTypeDecl());
      return Statement(std::move(s));
    }
    case TokenType::kKwVar: {
      PASCALR_ASSIGN_OR_RETURN(RelationDeclStmt s, ParseRelationDecl());
      return Statement(std::move(s));
    }
    case TokenType::kKwPrint: {
      Advance();
      if (!Check(TokenType::kIdent)) return ErrorHere("expected relation name");
      PrintStmt s;
      s.relation = Cur().text;
      Advance();
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
      return Statement(std::move(s));
    }
    case TokenType::kKwExplain: {
      Advance();
      ExplainStmt s;
      // ANALYZE is contextual here too: a selection can never start with
      // a bare identifier, so the word is unambiguous after EXPLAIN.
      s.analyze = AcceptWord("analyze");
      PASCALR_ASSIGN_OR_RETURN(s.selection, ParseSelection());
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
      return Statement(std::move(s));
    }
    case TokenType::kIdent: {
      std::string name = Cur().text;
      TokenType next = Ahead().type;
      // ANALYZE, SET, STATS, PREPARE, EXECUTE, INDEX, and METRICS are
      // contextual statement keywords, not reserved words: they only act
      // as keywords
      // where no identifier-led statement (:=, :+, :-) could parse, so
      // relations named `set` or `index` keep working.
      std::string lower = AsciiToLower(name);
      if (lower == "analyze" &&
          (next == TokenType::kSemicolon || next == TokenType::kIdent)) {
        Advance();
        AnalyzeStmt s;
        if (Check(TokenType::kIdent)) {
          s.relation = Cur().text;
          Advance();
        }
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (lower == "metrics" && next == TokenType::kSemicolon) {
        Advance();
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(MetricsStmt{});
      }
      if (lower == "stats" && next == TokenType::kIdent) {
        Advance();
        PASCALR_ASSIGN_OR_RETURN(StatsStmt s, ParseStatsBody());
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (lower == "prepare" && next == TokenType::kIdent) {
        Advance();
        PrepareStmt s;
        s.name = Cur().text;
        Advance();
        PASCALR_RETURN_IF_ERROR(ExpectWord("as"));
        PASCALR_ASSIGN_OR_RETURN(s.selection, ParseSelection());
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (lower == "execute" && next == TokenType::kIdent) {
        Advance();
        ExecuteStmt s;
        s.name = Cur().text;
        Advance();
        if (AcceptWord("with")) {
          while (true) {
            if (!Check(TokenType::kParam)) {
              return ErrorHere("expected a '$parameter' name");
            }
            std::string param = Cur().text;
            Advance();
            PASCALR_RETURN_IF_ERROR(Expect(TokenType::kEq));
            PASCALR_ASSIGN_OR_RETURN(RawLiteral value, ParseRawLiteral());
            s.params.emplace_back(std::move(param), std::move(value));
            if (!Accept(TokenType::kComma)) break;
          }
        }
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (lower == "index" && next == TokenType::kIdent) {
        Advance();
        IndexStmt s;
        s.relation = Cur().text;
        Advance();
        if (!Check(TokenType::kIdent)) {
          return ErrorHere("expected component name");
        }
        s.component = Cur().text;
        Advance();
        if (AcceptWord("ordered")) s.ordered = true;
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (lower == "set" && next == TokenType::kIdent) {
        Advance();
        SetStmt s;
        s.name = AsciiToLower(Cur().text);
        Advance();
        if (Check(TokenType::kIdent)) {
          s.value = AsciiToLower(Cur().text);
          Advance();
        } else if (Check(TokenType::kInt)) {
          s.value = std::to_string(Cur().int_value);
          Advance();
        } else {
          return ErrorHere("expected option value (identifier or integer)");
        }
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (next == TokenType::kAssign) {
        Advance();
        Advance();
        AssignStmt s;
        s.target = std::move(name);
        PASCALR_ASSIGN_OR_RETURN(s.selection, ParseSelection());
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        return Statement(std::move(s));
      }
      if (next == TokenType::kInsertOp || next == TokenType::kDeleteOp) {
        Advance();
        Advance();
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLBracket));
        PASCALR_ASSIGN_OR_RETURN(std::vector<RawLiteral> values,
                                 ParseTupleLiteral());
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRBracket));
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
        if (next == TokenType::kInsertOp) {
          InsertStmt s;
          s.target = std::move(name);
          s.values = std::move(values);
          return Statement(std::move(s));
        }
        DeleteStmt s;
        s.target = std::move(name);
        s.key = std::move(values);
        return Statement(std::move(s));
      }
      return ErrorHere("expected ':=', ':+', or ':-' after identifier");
    }
    default:
      return ErrorHere("expected a statement");
  }
}

Result<TypeDeclStmt> Parser::ParseTypeDecl() {
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwType));
  if (!Check(TokenType::kIdent)) return ErrorHere("expected type name");
  TypeDeclStmt s;
  s.name = Cur().text;
  Advance();
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kEq));
  PASCALR_ASSIGN_OR_RETURN(s.type, ParseTypeExpr());
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
  return s;
}

Result<RawType> Parser::ParseTypeExpr() {
  RawType t;
  switch (Cur().type) {
    case TokenType::kKwInteger:
      t.kind = RawType::Kind::kInt;
      Advance();
      return t;
    case TokenType::kKwBoolean:
      t.kind = RawType::Kind::kBool;
      Advance();
      return t;
    case TokenType::kKwStringType:
      t.kind = RawType::Kind::kString;
      Advance();
      if (Accept(TokenType::kLParen)) {
        if (!Check(TokenType::kInt)) return ErrorHere("expected string length");
        t.max_len = static_cast<size_t>(Cur().int_value);
        Advance();
        PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
      return t;
    case TokenType::kInt: {
      t.kind = RawType::Kind::kIntRange;
      t.lo = Cur().int_value;
      Advance();
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kDotDot));
      if (!Check(TokenType::kInt)) return ErrorHere("expected range upper bound");
      t.hi = Cur().int_value;
      Advance();
      if (t.hi < t.lo) return ErrorHere("empty integer subrange");
      return t;
    }
    case TokenType::kLParen: {
      t.kind = RawType::Kind::kInlineEnum;
      Advance();
      while (true) {
        if (!Check(TokenType::kIdent)) return ErrorHere("expected enum label");
        t.labels.push_back(Cur().text);
        Advance();
        if (!Accept(TokenType::kComma)) break;
      }
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return t;
    }
    case TokenType::kIdent:
      t.kind = RawType::Kind::kNamed;
      t.name = Cur().text;
      Advance();
      return t;
    default:
      return ErrorHere("expected a type expression");
  }
}

Result<RelationDeclStmt> Parser::ParseRelationDecl() {
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwVar));
  if (!Check(TokenType::kIdent)) return ErrorHere("expected relation name");
  RelationDeclStmt s;
  s.name = Cur().text;
  Advance();
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kColon));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwRelation));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLt));
  while (true) {
    if (!Check(TokenType::kIdent)) return ErrorHere("expected key component");
    s.key_components.push_back(Cur().text);
    Advance();
    if (!Accept(TokenType::kComma)) break;
  }
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kGt));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwOf));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwRecord));
  while (true) {
    if (!Check(TokenType::kIdent)) return ErrorHere("expected component name");
    std::string comp = Cur().text;
    Advance();
    PASCALR_RETURN_IF_ERROR(Expect(TokenType::kColon));
    PASCALR_ASSIGN_OR_RETURN(RawType type, ParseTypeExpr());
    s.components.emplace_back(std::move(comp), std::move(type));
    if (!Accept(TokenType::kSemicolon)) break;
    if (Check(TokenType::kKwEnd)) break;  // trailing ';' before END is fine
  }
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwEnd));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon));
  return s;
}

Result<std::vector<RawLiteral>> Parser::ParseTupleLiteral() {
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLt));
  std::vector<RawLiteral> values;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(RawLiteral lit, ParseRawLiteral());
    values.push_back(std::move(lit));
    if (!Accept(TokenType::kComma)) break;
  }
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kGt));
  return values;
}

bool Parser::AcceptWord(const char* word) {
  if (!Check(TokenType::kIdent) || AsciiToLower(Cur().text) != word) {
    return false;
  }
  Advance();
  return true;
}

Status Parser::ExpectWord(const char* word) {
  if (AcceptWord(word)) return Status::OK();
  return ErrorHere(std::string("expected ") + word);
}

Result<int64_t> Parser::ParseSignedInt() {
  bool negative = Accept(TokenType::kMinus);
  if (!Check(TokenType::kInt)) return ErrorHere("expected an integer");
  int64_t value = Cur().int_value;
  Advance();
  return negative ? -value : value;
}

Result<uint64_t> Parser::ParseCount() {
  if (!Check(TokenType::kInt)) {
    return ErrorHere("expected a non-negative integer");
  }
  int64_t value = Cur().int_value;
  Advance();
  if (value < 0) return ErrorHere("expected a non-negative integer");
  return static_cast<uint64_t>(value);
}

Result<StatsStmt> Parser::ParseStatsBody() {
  StatsStmt s;
  if (!Check(TokenType::kIdent)) return ErrorHere("expected relation name");
  s.relation = Cur().text;
  Advance();
  PASCALR_RETURN_IF_ERROR(ExpectWord("cardinality"));
  PASCALR_ASSIGN_OR_RETURN(s.cardinality, ParseCount());
  while (AcceptWord("column")) {
    StatsColumnClause col;
    if (!Check(TokenType::kIdent)) return ErrorHere("expected component name");
    col.component = Cur().text;
    Advance();
    PASCALR_RETURN_IF_ERROR(ExpectWord("distinct"));
    PASCALR_ASSIGN_OR_RETURN(col.distinct, ParseCount());
    if (AcceptWord("min")) {
      col.has_min_max = true;
      PASCALR_ASSIGN_OR_RETURN(col.min, ParseRawLiteral());
      PASCALR_RETURN_IF_ERROR(ExpectWord("max"));
      PASCALR_ASSIGN_OR_RETURN(col.max, ParseRawLiteral());
    }
    if (AcceptWord("histogram")) {
      col.has_histogram = true;
      PASCALR_ASSIGN_OR_RETURN(col.histogram_lo, ParseSignedInt());
      PASCALR_ASSIGN_OR_RETURN(col.histogram_hi, ParseSignedInt());
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLParen));
      while (true) {
        PASCALR_ASSIGN_OR_RETURN(uint64_t bucket, ParseCount());
        col.buckets.push_back(bucket);
        if (!Accept(TokenType::kComma)) break;
      }
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRParen));
    }
    s.columns.push_back(std::move(col));
  }
  return s;
}

Result<RawLiteral> Parser::ParseRawLiteral() {
  RawLiteral lit;
  if (Check(TokenType::kMinus) && Ahead().type == TokenType::kInt) {
    Advance();
    lit.kind = RawLiteral::Kind::kInt;
    lit.int_value = -Cur().int_value;
    Advance();
    return lit;
  }
  switch (Cur().type) {
    case TokenType::kInt:
      lit.kind = RawLiteral::Kind::kInt;
      lit.int_value = Cur().int_value;
      Advance();
      return lit;
    case TokenType::kString:
      lit.kind = RawLiteral::Kind::kString;
      lit.text = Cur().text;
      Advance();
      return lit;
    case TokenType::kIdent:
      lit.kind = RawLiteral::Kind::kIdent;
      lit.text = Cur().text;
      Advance();
      return lit;
    case TokenType::kKwTrue:
    case TokenType::kKwFalse:
      lit.kind = RawLiteral::Kind::kBool;
      lit.bool_value = Check(TokenType::kKwTrue);
      Advance();
      return lit;
    default:
      return ErrorHere("expected a literal");
  }
}

Result<SelectionExpr> Parser::ParseSelection() {
  SelectionExpr sel;
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLBracket));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLt));
  while (true) {
    if (!Check(TokenType::kIdent)) {
      return ErrorHere("expected 'var.component' in component selection");
    }
    OutputComponent out;
    out.var = Cur().text;
    Advance();
    PASCALR_RETURN_IF_ERROR(Expect(TokenType::kDot));
    if (!Check(TokenType::kIdent)) return ErrorHere("expected component name");
    out.component = Cur().text;
    Advance();
    sel.projection.push_back(std::move(out));
    if (!Accept(TokenType::kComma)) break;
  }
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kGt));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwOf));
  while (true) {
    PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwEach));
    if (!Check(TokenType::kIdent)) return ErrorHere("expected variable name");
    RangeDecl decl;
    decl.var = Cur().text;
    Advance();
    PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwIn));
    std::string inner_var;
    PASCALR_ASSIGN_OR_RETURN(decl.range, ParseRange(&inner_var));
    if (decl.range.IsExtended() && inner_var != decl.var) {
      RenameVariable(decl.range.restriction.get(), inner_var, decl.var);
    }
    sel.free_vars.push_back(std::move(decl));
    if (!Accept(TokenType::kComma)) break;
  }
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kColon));
  PASCALR_ASSIGN_OR_RETURN(sel.wff, ParseWff());
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRBracket));
  return sel;
}

Result<RangeExpr> Parser::ParseRange(std::string* bound_var_out) {
  if (Check(TokenType::kIdent)) {
    RangeExpr r(Cur().text);
    Advance();
    *bound_var_out = "";
    return r;
  }
  // Extended range: [EACH v IN rel: wff]
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kLBracket));
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwEach));
  if (!Check(TokenType::kIdent)) return ErrorHere("expected variable name");
  std::string var = Cur().text;
  Advance();
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwIn));
  if (!Check(TokenType::kIdent)) {
    return ErrorHere("expected relation name in extended range");
  }
  RangeExpr r(Cur().text);
  Advance();
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kColon));
  PASCALR_ASSIGN_OR_RETURN(r.restriction, ParseWff());
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRBracket));
  *bound_var_out = var;
  return r;
}

Result<FormulaPtr> Parser::ParseWff() {
  PASCALR_ASSIGN_OR_RETURN(FormulaPtr first, ParseConj());
  if (!Check(TokenType::kKwOr)) return first;
  std::vector<FormulaPtr> children;
  children.push_back(std::move(first));
  while (Accept(TokenType::kKwOr)) {
    PASCALR_ASSIGN_OR_RETURN(FormulaPtr next, ParseConj());
    children.push_back(std::move(next));
  }
  return Formula::Or(std::move(children));
}

Result<FormulaPtr> Parser::ParseConj() {
  PASCALR_ASSIGN_OR_RETURN(FormulaPtr first, ParseUnary());
  if (!Check(TokenType::kKwAnd)) return first;
  std::vector<FormulaPtr> children;
  children.push_back(std::move(first));
  while (Accept(TokenType::kKwAnd)) {
    PASCALR_ASSIGN_OR_RETURN(FormulaPtr next, ParseUnary());
    children.push_back(std::move(next));
  }
  return Formula::And(std::move(children));
}

Result<FormulaPtr> Parser::ParseUnary() {
  switch (Cur().type) {
    case TokenType::kKwNot: {
      Advance();
      PASCALR_ASSIGN_OR_RETURN(FormulaPtr inner, ParseUnary());
      return Formula::Not(std::move(inner));
    }
    case TokenType::kKwSome:
    case TokenType::kKwAll:
      return ParseQuant();
    case TokenType::kKwTrue:
      Advance();
      return Formula::True();
    case TokenType::kKwFalse:
      Advance();
      return Formula::False();
    case TokenType::kLParen: {
      Advance();
      PASCALR_ASSIGN_OR_RETURN(FormulaPtr inner, ParseWff());
      PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    default: {
      // Atom: operand relop operand.
      PASCALR_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
      PASCALR_ASSIGN_OR_RETURN(CompareOp op, ParseRelop());
      PASCALR_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());
      return Formula::Compare(std::move(lhs), op, std::move(rhs));
    }
  }
}

Result<FormulaPtr> Parser::ParseQuant() {
  Quantifier q =
      Check(TokenType::kKwSome) ? Quantifier::kSome : Quantifier::kAll;
  Advance();
  if (!Check(TokenType::kIdent)) return ErrorHere("expected variable name");
  std::string var = Cur().text;
  Advance();
  PASCALR_RETURN_IF_ERROR(Expect(TokenType::kKwIn));
  std::string inner_var;
  PASCALR_ASSIGN_OR_RETURN(RangeExpr range, ParseRange(&inner_var));
  if (range.IsExtended() && inner_var != var) {
    RenameVariable(range.restriction.get(), inner_var, var);
  }
  // Body: another quantifier (juxtaposition) or a parenthesised wff.
  FormulaPtr body;
  if (Check(TokenType::kKwSome) || Check(TokenType::kKwAll)) {
    PASCALR_ASSIGN_OR_RETURN(body, ParseQuant());
  } else if (Check(TokenType::kLParen)) {
    Advance();
    PASCALR_ASSIGN_OR_RETURN(body, ParseWff());
    PASCALR_RETURN_IF_ERROR(Expect(TokenType::kRParen));
  } else {
    return ErrorHere(
        "expected a parenthesised body or another quantifier after range");
  }
  return Formula::Quant(q, std::move(var), std::move(range), std::move(body));
}

Result<Operand> Parser::ParseOperand() {
  switch (Cur().type) {
    case TokenType::kIdent: {
      std::string first = Cur().text;
      Advance();
      if (Accept(TokenType::kDot)) {
        if (!Check(TokenType::kIdent)) {
          return ErrorHere("expected component name after '.'");
        }
        std::string comp = Cur().text;
        Advance();
        return Operand::Component(std::move(first), std::move(comp));
      }
      // A bare identifier is an (as yet untyped) enum-label literal; the
      // binder resolves it against the other operand's enumeration type.
      Operand o;
      o.kind = Operand::Kind::kLiteral;
      o.enum_label = std::move(first);
      o.literal = Value::MakeEnum(-1);
      return o;
    }
    case TokenType::kMinus:
    case TokenType::kInt: {
      // A signed integer constant, e.g. `x.v < -3`.
      const bool negative = Accept(TokenType::kMinus);
      if (!Check(TokenType::kInt)) return ErrorHere("expected an integer");
      Operand o = Operand::Literal(
          Value::MakeInt(negative ? -Cur().int_value : Cur().int_value));
      o.type = Type::Int();
      Advance();
      return o;
    }
    case TokenType::kString: {
      Operand o = Operand::Literal(Value::MakeString(Cur().text));
      o.type = Type::String();
      Advance();
      return o;
    }
    case TokenType::kKwTrue:
    case TokenType::kKwFalse: {
      Operand o = Operand::Literal(Value::MakeBool(Check(TokenType::kKwTrue)));
      o.type = Type::Bool();
      Advance();
      return o;
    }
    case TokenType::kParam: {
      // Host-variable parameter: typed by the binder against the opposite
      // component operand, valued at Execute.
      Operand o = Operand::Param(Cur().text);
      Advance();
      return o;
    }
    default:
      return ErrorHere("expected an operand");
  }
}

Result<CompareOp> Parser::ParseRelop() {
  switch (Cur().type) {
    case TokenType::kEq:
      Advance();
      return CompareOp::kEq;
    case TokenType::kNe:
      Advance();
      return CompareOp::kNe;
    case TokenType::kLt:
      Advance();
      return CompareOp::kLt;
    case TokenType::kLe:
      Advance();
      return CompareOp::kLe;
    case TokenType::kGt:
      Advance();
      return CompareOp::kGt;
    case TokenType::kGe:
      Advance();
      return CompareOp::kGe;
    default:
      return ErrorHere("expected a comparison operator");
  }
}

}  // namespace pascalr
