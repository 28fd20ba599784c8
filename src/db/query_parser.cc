#include <cctype>

#include "common/limits.h"
#include "common/macros.h"
#include "common/strings.h"
#include "db/compiled_statement.h"
#include "db/query.h"
#include "obs/obs.h"

namespace caldb {

std::string_view DbEventName(DbEvent event) {
  switch (event) {
    case DbEvent::kAppend:
      return "append";
    case DbEvent::kDelete:
      return "delete";
    case DbEvent::kReplace:
      return "replace";
    case DbEvent::kRetrieve:
      return "retrieve";
  }
  return "?";
}

namespace {

enum class QTok {
  kIdent,
  kInt,
  kFloat,
  kString,
  kParam,  // positional placeholder $n, index in `int_value`
  kPunct,  // single/double char operator, text in `text`
  kEnd,
};

struct QToken {
  QTok kind = QTok::kEnd;
  std::string text;
  int64_t int_value = 0;
  double float_value = 0;
  size_t offset = 0;  // byte offset in the source (for `do` tails)
};

Result<std::vector<QToken>> QLex(std::string_view src) {
  std::vector<QToken> tokens;
  size_t i = 0;
  while (i < src.size()) {
    char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    QToken tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[i])) || src[i] == '_')) {
        ++i;
      }
      tok.kind = QTok::kIdent;
      tok.text = std::string(src.substr(start, i - start));
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) {
        ++i;
      }
      if (i + 1 < src.size() && src[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(src[i + 1]))) {
        ++i;
        while (i < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[i]))) {
          ++i;
        }
        tok.kind = QTok::kFloat;
        // ParseDouble, not std::stod: an over-long literal must come back
        // as a ParseError, not an exception (no-throw contract,
        // common/result.h).
        CALDB_ASSIGN_OR_RETURN(tok.float_value,
                               ParseDouble(src.substr(start, i - start)));
      } else {
        tok.kind = QTok::kInt;
        tok.int_value = 0;
        for (size_t j = start; j < i; ++j) {
          tok.int_value = tok.int_value * 10 + (src[j] - '0');
        }
      }
    } else if (c == '$') {
      // Positional placeholder $n.  Strings are handled below, so a `$`
      // inside a quoted literal never reaches this branch.
      size_t start = ++i;
      while (i < src.size() &&
             std::isdigit(static_cast<unsigned char>(src[i]))) {
        ++i;
      }
      if (i == start) {
        return Status::ParseError(
            "expected a parameter number after '$' (placeholders are $1, "
            "$2, ...)");
      }
      tok.kind = QTok::kParam;
      tok.int_value = 0;
      for (size_t j = start; j < i && tok.int_value <= 1'000'000; ++j) {
        tok.int_value = tok.int_value * 10 + (src[j] - '0');
      }
      if (tok.int_value < 1 || tok.int_value > 1'000'000) {
        return Status::ParseError("parameter $" +
                                  std::string(src.substr(start, i - start)) +
                                  " out of range (placeholders start at $1)");
      }
      tok.text = "$" + std::to_string(tok.int_value);
    } else if (c == '\'' || c == '"') {
      char quote = c;
      ++i;
      tok.kind = QTok::kString;
      while (i < src.size() && src[i] != quote) {
        tok.text.push_back(src[i]);
        ++i;
      }
      if (i >= src.size()) {
        return Status::ParseError("unterminated string literal");
      }
      ++i;
    } else {
      tok.kind = QTok::kPunct;
      // Two-character operators.
      if (i + 1 < src.size()) {
        std::string_view two = src.substr(i, 2);
        if (two == "!=" || two == "<=" || two == ">=") {
          tok.text = std::string(two);
          i += 2;
          tokens.push_back(std::move(tok));
          continue;
        }
      }
      static constexpr std::string_view kSingles = "(),.=<>+-*/";
      if (kSingles.find(c) == std::string_view::npos) {
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' in query");
      }
      tok.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(std::move(tok));
  }
  QToken end;
  end.kind = QTok::kEnd;
  end.offset = src.size();
  tokens.push_back(end);
  return tokens;
}

class QueryParser {
 public:
  QueryParser(std::string_view src, std::vector<QToken> tokens)
      : src_(src), tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatementTop() {
    if (MatchKeyword("retrieve")) return ParseRetrieve();
    if (MatchKeyword("append")) return ParseAppend();
    if (MatchKeyword("replace")) return ParseReplace();
    if (MatchKeyword("delete")) return ParseDelete();
    if (MatchKeyword("create")) {
      if (MatchKeyword("table")) return ParseCreateTable();
      if (MatchKeyword("index")) return ParseCreateIndex();
      return Fail("'table' or 'index' after 'create'");
    }
    if (MatchKeyword("define")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("rule"));
      return ParseDefineRule();
    }
    if (MatchKeyword("drop")) {
      if (MatchKeyword("rule")) {
        DropRuleStmt stmt;
        CALDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("rule name"));
        CALDB_RETURN_IF_ERROR(ExpectEnd());
        return Statement{std::move(stmt)};
      }
      if (MatchKeyword("table")) {
        DropTableStmt stmt;
        CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
        CALDB_RETURN_IF_ERROR(ExpectEnd());
        return Statement{std::move(stmt)};
      }
      return Fail("'rule' or 'table' after 'drop'");
    }
    return Fail("a statement (retrieve/append/replace/delete/create/define/drop)");
  }

  Result<DbExprPtr> ParseExpressionTop() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr e, ParseOr());
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  const QToken& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const QToken& Advance() {
    return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_];
  }
  bool CheckPunct(std::string_view p) const {
    return Peek().kind == QTok::kPunct && Peek().text == p;
  }
  bool MatchPunct(std::string_view p) {
    if (!CheckPunct(p)) return false;
    Advance();
    return true;
  }
  bool CheckKeyword(std::string_view kw, size_t ahead = 0) const {
    return Peek(ahead).kind == QTok::kIdent &&
           EqualsIgnoreCase(Peek(ahead).text, kw);
  }
  bool MatchKeyword(std::string_view kw) {
    if (!CheckKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status Fail(std::string_view wanted) const {
    const QToken& t = Peek();
    std::string found = t.kind == QTok::kEnd ? "end of query" : "'" + t.text + "'";
    if (t.kind == QTok::kInt) found = std::to_string(t.int_value);
    return Status::ParseError("expected " + std::string(wanted) + " but found " +
                              found);
  }

  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Fail("'" + std::string(kw) + "'");
  }
  Status ExpectPunct(std::string_view p) {
    if (MatchPunct(p)) return Status::OK();
    return Fail("'" + std::string(p) + "'");
  }
  Status ExpectEnd() {
    if (Peek().kind == QTok::kEnd) return Status::OK();
    return Fail("end of query");
  }
  Result<std::string> ExpectIdent(std::string_view what) {
    if (Peek().kind != QTok::kIdent) return Fail(what);
    return Advance().text;
  }

  // --- statements -----------------------------------------------------------

  Result<Statement> ParseRetrieve() {
    RetrieveStmt stmt;
    if (MatchKeyword("into")) {
      CALDB_ASSIGN_OR_RETURN(stmt.into, ExpectIdent("result table name"));
    }
    CALDB_RETURN_IF_ERROR(ExpectPunct("("));
    while (true) {
      RetrieveStmt::Target target;
      CALDB_ASSIGN_OR_RETURN(target.expr, ParseOr());
      if (MatchKeyword("as")) {
        CALDB_ASSIGN_OR_RETURN(target.alias, ExpectIdent("alias"));
      } else {
        target.alias = target.expr->kind == DbExpr::Kind::kColumnRef
                           ? target.expr->column
                           : target.expr->ToString();
      }
      stmt.targets.push_back(std::move(target));
      if (!MatchPunct(",")) break;
    }
    CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("from"));
    while (true) {
      RetrieveStmt::TableRef ref;
      CALDB_ASSIGN_OR_RETURN(ref.var, ExpectIdent("range variable"));
      CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
      CALDB_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
      for (const RetrieveStmt::TableRef& existing : stmt.tables) {
        if (existing.var == ref.var) {
          return Status::ParseError("duplicate range variable '" + ref.var +
                                    "'");
        }
      }
      stmt.tables.push_back(std::move(ref));
      if (!MatchPunct(",")) break;
    }
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (MatchKeyword("group")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        CALDB_ASSIGN_OR_RETURN(std::string first, ExpectIdent("group column"));
        std::string var;
        std::string column = first;
        if (MatchPunct(".")) {
          var = first;
          CALDB_ASSIGN_OR_RETURN(column, ExpectIdent("group column"));
        }
        stmt.group_by.emplace_back(var, column);
        if (!MatchPunct(",")) break;
      }
    }
    if (MatchKeyword("order")) {
      CALDB_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        CALDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("order column"));
        bool asc = true;
        if (MatchKeyword("desc")) {
          asc = false;
        } else {
          MatchKeyword("asc");
        }
        stmt.order_by.emplace_back(column, asc);
        if (!MatchPunct(",")) break;
      }
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<std::vector<std::pair<std::string, DbExprPtr>>> ParseSetList() {
    std::vector<std::pair<std::string, DbExprPtr>> sets;
    CALDB_RETURN_IF_ERROR(ExpectPunct("("));
    while (true) {
      CALDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("column name"));
      CALDB_RETURN_IF_ERROR(ExpectPunct("="));
      CALDB_ASSIGN_OR_RETURN(DbExprPtr value, ParseOr());
      sets.emplace_back(std::move(column), std::move(value));
      if (!MatchPunct(",")) break;
    }
    CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
    return sets;
  }

  Result<Statement> ParseAppend() {
    AppendStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_ASSIGN_OR_RETURN(stmt.sets, ParseSetList());
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseReplace() {
    ReplaceStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.var, ExpectIdent("range variable"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_ASSIGN_OR_RETURN(stmt.sets, ParseSetList());
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDelete() {
    DeleteStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.var, ExpectIdent("range variable"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("in"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseCreateTable() {
    CreateTableStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_RETURN_IF_ERROR(ExpectPunct("("));
    while (true) {
      Column column;
      CALDB_ASSIGN_OR_RETURN(column.name, ExpectIdent("column name"));
      CALDB_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent("column type"));
      CALDB_ASSIGN_OR_RETURN(column.type, ParseValueType(type_name));
      stmt.columns.push_back(std::move(column));
      if (!MatchPunct(",")) break;
    }
    CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseCreateIndex() {
    CreateIndexStmt stmt;
    CALDB_RETURN_IF_ERROR(ExpectKeyword("on"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    CALDB_RETURN_IF_ERROR(ExpectPunct("("));
    CALDB_ASSIGN_OR_RETURN(stmt.column, ExpectIdent("column name"));
    CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
    CALDB_RETURN_IF_ERROR(ExpectEnd());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDefineRule() {
    DefineRuleStmt stmt;
    CALDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("rule name"));
    CALDB_RETURN_IF_ERROR(ExpectKeyword("on"));
    CALDB_ASSIGN_OR_RETURN(std::string event, ExpectIdent("event"));
    if (EqualsIgnoreCase(event, "append")) {
      stmt.event = DbEvent::kAppend;
    } else if (EqualsIgnoreCase(event, "delete")) {
      stmt.event = DbEvent::kDelete;
    } else if (EqualsIgnoreCase(event, "replace")) {
      stmt.event = DbEvent::kReplace;
    } else if (EqualsIgnoreCase(event, "retrieve")) {
      stmt.event = DbEvent::kRetrieve;
    } else {
      return Status::ParseError("unknown rule event '" + event +
                                "' (append/delete/replace/retrieve)");
    }
    CALDB_RETURN_IF_ERROR(ExpectKeyword("to"));
    CALDB_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (MatchKeyword("where")) {
      CALDB_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (!CheckKeyword("do")) return Fail("'do'");
    const QToken& do_tok = Peek();
    // The action is the raw remainder of the query after 'do'.
    size_t tail_start = do_tok.offset + 2;
    stmt.action_command =
        std::string(TrimWhitespace(src_.substr(tail_start)));
    if (stmt.action_command.empty()) {
      return Status::ParseError("rule action after 'do' must not be empty");
    }
    return Statement{std::move(stmt)};
  }

  // --- expressions ----------------------------------------------------------

  // Nesting levels are counted where the grammar recurses: every ParseOr
  // (a parenthesized expression or a call argument), a `not` and a unary
  // minus.

  Result<DbExprPtr> ParseOr() {
    ParseDepthGuard nest(&depth_);
    CALDB_RETURN_IF_ERROR(nest.Check());
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseAnd());
    while (MatchKeyword("or")) {
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseAnd());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseAnd() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseNot());
    while (MatchKeyword("and")) {
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseNot());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseNot() {
    if (MatchKeyword("not")) {
      ParseDepthGuard nest(&depth_);
      CALDB_RETURN_IF_ERROR(nest.Check());
      CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParseNot());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kLogical;
      node->log = LogOp::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    return ParseComparison();
  }

  Result<DbExprPtr> ParseComparison() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseAdd());
    CmpOp op;
    if (MatchPunct("=")) {
      op = CmpOp::kEq;
    } else if (MatchPunct("!=")) {
      op = CmpOp::kNe;
    } else if (MatchPunct("<=")) {
      op = CmpOp::kLe;
    } else if (MatchPunct("<")) {
      op = CmpOp::kLt;
    } else if (MatchPunct(">=")) {
      op = CmpOp::kGe;
    } else if (MatchPunct(">")) {
      op = CmpOp::kGt;
    } else {
      return lhs;
    }
    CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseAdd());
    auto node = std::make_shared<DbExpr>();
    node->kind = DbExpr::Kind::kCompare;
    node->cmp = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<DbExprPtr> ParseAdd() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParseMul());
    while (CheckPunct("+") || CheckPunct("-")) {
      char op = Advance().text[0];
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParseMul());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kArith;
      node->arith = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParseMul() {
    CALDB_ASSIGN_OR_RETURN(DbExprPtr lhs, ParsePrimary());
    while (CheckPunct("*") || CheckPunct("/")) {
      char op = Advance().text[0];
      CALDB_ASSIGN_OR_RETURN(DbExprPtr rhs, ParsePrimary());
      auto node = std::make_shared<DbExpr>();
      node->kind = DbExpr::Kind::kArith;
      node->arith = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<DbExprPtr> ParsePrimary() {
    const QToken& t = Peek();
    auto node = std::make_shared<DbExpr>();
    switch (t.kind) {
      case QTok::kInt:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Int(Advance().int_value);
        return node;
      case QTok::kFloat:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Float(Advance().float_value);
        return node;
      case QTok::kString:
        node->kind = DbExpr::Kind::kConst;
        node->constant = Value::Text(Advance().text);
        return node;
      case QTok::kParam:
        node->kind = DbExpr::Kind::kParam;
        node->param_index = static_cast<int>(Advance().int_value);
        return node;
      case QTok::kIdent: {
        if (MatchKeyword("true")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Bool(true);
          return node;
        }
        if (MatchKeyword("false")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Bool(false);
          return node;
        }
        if (MatchKeyword("null")) {
          node->kind = DbExpr::Kind::kConst;
          node->constant = Value::Null();
          return node;
        }
        std::string name = Advance().text;
        if (MatchPunct("(")) {
          node->kind = DbExpr::Kind::kCall;
          node->fn_name = std::move(name);
          if (!CheckPunct(")")) {
            while (true) {
              CALDB_ASSIGN_OR_RETURN(DbExprPtr arg, ParseOr());
              node->args.push_back(std::move(arg));
              if (!MatchPunct(",")) break;
            }
          }
          CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
          return node;
        }
        node->kind = DbExpr::Kind::kColumnRef;
        if (MatchPunct(".")) {
          node->var = std::move(name);
          CALDB_ASSIGN_OR_RETURN(node->column, ExpectIdent("column name"));
        } else {
          node->column = std::move(name);
        }
        return node;
      }
      case QTok::kPunct:
        if (MatchPunct("(")) {
          CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParseOr());
          CALDB_RETURN_IF_ERROR(ExpectPunct(")"));
          return inner;
        }
        if (MatchPunct("-")) {
          // Unary minus: fold into constants, or rewrite as 0 - expr.
          ParseDepthGuard nest(&depth_);
          CALDB_RETURN_IF_ERROR(nest.Check());
          CALDB_ASSIGN_OR_RETURN(DbExprPtr inner, ParsePrimary());
          if (inner->kind == DbExpr::Kind::kConst &&
              inner->constant.type() == ValueType::kInt) {
            inner->constant = Value::Int(-inner->constant.AsInt().value());
            return inner;
          }
          if (inner->kind == DbExpr::Kind::kConst &&
              inner->constant.type() == ValueType::kFloat) {
            inner->constant = Value::Float(-inner->constant.AsFloat().value());
            return inner;
          }
          auto zero = std::make_shared<DbExpr>();
          zero->kind = DbExpr::Kind::kConst;
          zero->constant = Value::Int(0);
          node->kind = DbExpr::Kind::kArith;
          node->arith = '-';
          node->lhs = std::move(zero);
          node->rhs = std::move(inner);
          return node;
        }
        break;
      case QTok::kEnd:
        break;
    }
    return Fail("an expression");
  }

  std::string_view src_;
  std::vector<QToken> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting level (common/limits.h)
};

}  // namespace

Result<Statement> ParseStatement(std::string_view query) {
  // The parse-once contract is pinned by this counter: tests assert its
  // delta stays flat while cached statements re-execute.
  static obs::Counter* parses = obs::Metrics().counter("caldb.db.parses");
  parses->Increment();
  CALDB_ASSIGN_OR_RETURN(std::vector<QToken> tokens, QLex(query));
  // `explain <stmt>` / `profile <stmt>`: strip the verb and compile the
  // tail exactly once — plan rendering and the PROFILE run share the
  // handle (see ExplainStmt).  The tail may not be another explain or
  // profile: each would recurse through CompileStatement.
  auto is_explain = [&](size_t i) {
    return tokens[i].kind == QTok::kIdent &&
           (EqualsIgnoreCase(tokens[i].text, "explain") ||
            EqualsIgnoreCase(tokens[i].text, "profile"));
  };
  if (tokens.size() >= 2 && is_explain(0)) {
    if (is_explain(1)) {
      return Status::ParseError("explain/profile cannot be nested");
    }
    ExplainStmt stmt;
    stmt.profile = EqualsIgnoreCase(tokens[0].text, "profile");
    stmt.query = std::string(query.substr(tokens[1].offset));
    CALDB_ASSIGN_OR_RETURN(stmt.inner, CompileStatement(stmt.query));
    return Statement{std::move(stmt)};
  }
  return QueryParser(query, std::move(tokens)).ParseStatementTop();
}

Result<DbExprPtr> ParseDbExpression(std::string_view text) {
  CALDB_ASSIGN_OR_RETURN(std::vector<QToken> tokens, QLex(text));
  return QueryParser(text, std::move(tokens)).ParseExpressionTop();
}

}  // namespace caldb
