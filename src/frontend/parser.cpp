#include "frontend/parser.hpp"

#include "frontend/lexer.hpp"

namespace lucid::frontend {

namespace {

/// Binary operator precedence; higher binds tighter. Mirrors C.
int binop_precedence(TokenKind k) {
  switch (k) {
    case TokenKind::PipePipe: return 1;
    case TokenKind::AmpAmp: return 2;
    case TokenKind::Pipe: return 3;
    case TokenKind::Caret: return 4;
    case TokenKind::Amp: return 5;
    case TokenKind::EqEq:
    case TokenKind::NotEq: return 6;
    case TokenKind::Lt:
    case TokenKind::Gt:
    case TokenKind::Le:
    case TokenKind::Ge: return 7;
    case TokenKind::Shl:
    case TokenKind::Shr: return 8;
    case TokenKind::Plus:
    case TokenKind::Minus: return 9;
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent: return 10;
    default: return -1;
  }
}

BinOp token_to_binop(TokenKind k) {
  switch (k) {
    case TokenKind::PipePipe: return BinOp::LOr;
    case TokenKind::AmpAmp: return BinOp::LAnd;
    case TokenKind::Pipe: return BinOp::BitOr;
    case TokenKind::Caret: return BinOp::BitXor;
    case TokenKind::Amp: return BinOp::BitAnd;
    case TokenKind::EqEq: return BinOp::Eq;
    case TokenKind::NotEq: return BinOp::Ne;
    case TokenKind::Lt: return BinOp::Lt;
    case TokenKind::Gt: return BinOp::Gt;
    case TokenKind::Le: return BinOp::Le;
    case TokenKind::Ge: return BinOp::Ge;
    case TokenKind::Shl: return BinOp::Shl;
    case TokenKind::Shr: return BinOp::Shr;
    case TokenKind::Plus: return BinOp::Add;
    case TokenKind::Minus: return BinOp::Sub;
    case TokenKind::Star: return BinOp::Mul;
    case TokenKind::Slash: return BinOp::Div;
    case TokenKind::Percent: return BinOp::Mod;
    default: return BinOp::Add;
  }
}

}  // namespace

Program Parser::parse(std::string_view source, DiagnosticEngine& diags) {
  Lexer lexer(source, diags);
  Parser parser(lexer.lex_all(), diags);
  return parser.parse_program();
}

const Token& Parser::peek(std::size_t off) const {
  const std::size_t i = pos_ + off;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::advance() {
  const Token& t = peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::match(TokenKind k) {
  if (check(k)) {
    advance();
    return true;
  }
  return false;
}

const Token* Parser::expect(TokenKind k, std::string_view what) {
  if (check(k)) return &advance();
  diags_.error(peek().range, "parse-expected",
               "expected " + std::string(token_kind_name(k)) + " " +
                   std::string(what) + ", found " + peek().str());
  return nullptr;
}

void Parser::synchronize() {
  while (!check(TokenKind::Eof)) {
    if (match(TokenKind::Semi)) return;
    if (check(TokenKind::RBrace)) {
      advance();
      return;
    }
    advance();
  }
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

Program Parser::parse_program() {
  Program program;
  while (!check(TokenKind::Eof)) {
    DeclPtr d = parse_decl();
    if (d) {
      program.decls.push_back(std::move(d));
    } else {
      synchronize();
    }
  }
  return program;
}

DeclPtr Parser::parse_decl() {
  switch (peek().kind) {
    case TokenKind::KwConst: return parse_const_or_group();
    case TokenKind::KwGroup: {
      const SrcLoc start = peek().range.begin;
      advance();
      return parse_group(start);
    }
    case TokenKind::KwGlobal: return parse_global();
    case TokenKind::KwMemop: return parse_memop();
    case TokenKind::KwFun: return parse_fun();
    case TokenKind::KwEvent: return parse_event();
    case TokenKind::KwHandle: return parse_handler();
    default:
      diags_.error(peek().range, "parse-bad-decl",
                   "expected a declaration, found " + peek().str());
      return nullptr;
  }
}

DeclPtr Parser::parse_const_or_group() {
  const SrcLoc start = peek().range.begin;
  advance();  // const
  if (check(TokenKind::KwGroup)) {
    advance();
    return parse_group(start);
  }
  auto decl = std::make_shared<ConstDecl>();
  decl->declared_type = parse_type();
  const Token* name = expect(TokenKind::Ident, "after const type");
  if (!name) return nullptr;
  decl->name = name->text;
  if (!expect(TokenKind::Assign, "in const declaration")) return nullptr;
  decl->value = parse_expr();
  if (!decl->value) return nullptr;
  expect(TokenKind::Semi, "after const declaration");
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

DeclPtr Parser::parse_group(SrcLoc start) {
  auto decl = std::make_shared<GroupDecl>();
  const Token* name = expect(TokenKind::Ident, "after 'group'");
  if (!name) return nullptr;
  decl->name = name->text;
  if (!expect(TokenKind::Assign, "in group declaration")) return nullptr;
  if (!expect(TokenKind::LBrace, "to open group member list")) return nullptr;
  if (!check(TokenKind::RBrace)) {
    do {
      ExprPtr member = parse_expr();
      if (!member) return nullptr;
      decl->members.push_back(std::move(member));
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RBrace, "to close group member list");
  expect(TokenKind::Semi, "after group declaration");
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

DeclPtr Parser::parse_global() {
  const SrcLoc start = peek().range.begin;
  advance();  // global
  auto decl = std::make_shared<GlobalDecl>();
  const Token* name = expect(TokenKind::Ident, "after 'global'");
  if (!name) return nullptr;
  decl->name = name->text;
  if (!expect(TokenKind::Assign, "in global declaration")) return nullptr;
  if (!expect(TokenKind::KwNew, "in global declaration")) return nullptr;
  const Token* arr = expect(TokenKind::Ident, "('Array') after 'new'");
  if (!arr) return nullptr;
  if (arr->text != "Array") {
    diags_.error(arr->range, "parse-expected-array",
                 "only 'new Array<<w>>(n)' globals are supported");
    return nullptr;
  }
  if (!expect(TokenKind::Shl, "to open Array width")) return nullptr;
  const Token* width = expect(TokenKind::IntLit, "Array cell width");
  if (!width) return nullptr;
  // Checked before narrowing so a huge literal cannot wrap into range:
  // anything above 64 is kept as 65, which Sema rejects
  // (sema-bad-array-width) like every width outside 1..64.
  decl->width =
      width->int_value > 64 ? 65 : static_cast<int>(width->int_value);
  if (!expect(TokenKind::Shr, "to close Array width")) return nullptr;
  if (!expect(TokenKind::LParen, "before Array size")) return nullptr;
  decl->size = parse_expr();
  if (!decl->size) return nullptr;
  expect(TokenKind::RParen, "after Array size");
  expect(TokenKind::Semi, "after global declaration");
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

std::vector<Param> Parser::parse_params() {
  std::vector<Param> params;
  if (!expect(TokenKind::LParen, "to open parameter list")) return params;
  if (!check(TokenKind::RParen)) {
    do {
      Param p;
      const SrcLoc pstart = peek().range.begin;
      p.type = parse_type();
      const Token* name = expect(TokenKind::Ident, "parameter name");
      if (!name) break;
      p.name = name->text;
      p.range = SrcRange{pstart, peek().range.begin};
      params.push_back(std::move(p));
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close parameter list");
  return params;
}

DeclPtr Parser::parse_memop() {
  const SrcLoc start = peek().range.begin;
  advance();  // memop
  auto decl = std::make_shared<MemopDecl>();
  const Token* name = expect(TokenKind::Ident, "after 'memop'");
  if (!name) return nullptr;
  decl->name = name->text;
  decl->params = parse_params();
  decl->body = parse_block();
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

DeclPtr Parser::parse_fun() {
  const SrcLoc start = peek().range.begin;
  advance();  // fun
  auto decl = std::make_shared<FunDecl>();
  decl->return_type = parse_type();
  const Token* name = expect(TokenKind::Ident, "function name");
  if (!name) return nullptr;
  decl->name = name->text;
  decl->params = parse_params();
  decl->body = parse_block();
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

DeclPtr Parser::parse_event() {
  const SrcLoc start = peek().range.begin;
  advance();  // event
  auto decl = std::make_shared<EventDecl>();
  const Token* name = expect(TokenKind::Ident, "event name");
  if (!name) return nullptr;
  decl->name = name->text;
  decl->params = parse_params();
  expect(TokenKind::Semi, "after event declaration");
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

DeclPtr Parser::parse_handler() {
  const SrcLoc start = peek().range.begin;
  advance();  // handle
  auto decl = std::make_shared<HandlerDecl>();
  const Token* name = expect(TokenKind::Ident, "handler name");
  if (!name) return nullptr;
  decl->name = name->text;
  decl->params = parse_params();
  decl->body = parse_block();
  decl->range = SrcRange{start, peek().range.begin};
  return decl;
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

bool Parser::type_starts_here() const {
  switch (peek().kind) {
    case TokenKind::KwInt:
    case TokenKind::KwBool:
    case TokenKind::KwVoid:
      return true;
    case TokenKind::KwEvent:
      // `event x = ...;` inside a block is an event-typed local. At the top
      // level `event` begins a declaration, so callers only use
      // type_starts_here() in statement position.
      return peek(1).is(TokenKind::Ident) && peek(2).is(TokenKind::Assign);
    case TokenKind::Ident:
      return peek().text == "Array" && peek(1).is(TokenKind::Shl);
    default:
      return false;
  }
}

Type Parser::parse_type() {
  const Token& t = peek();
  switch (t.kind) {
    case TokenKind::KwInt: {
      advance();
      int width = 32;
      if (match(TokenKind::Shl)) {
        const Token* w = expect(TokenKind::IntLit, "integer width");
        if (w) width = static_cast<int>(w->int_value);
        expect(TokenKind::Shr, "to close integer width");
      }
      return Type::int_ty(width);
    }
    case TokenKind::KwBool:
      advance();
      return Type::bool_ty();
    case TokenKind::KwVoid:
      advance();
      return Type::void_ty();
    case TokenKind::KwEvent:
      advance();
      return Type::event_ty();
    case TokenKind::KwGroup:
      advance();
      return Type::group_ty();
    case TokenKind::Ident:
      if (t.text == "Array") {
        advance();
        int width = 32;
        if (expect(TokenKind::Shl, "to open Array width")) {
          const Token* w = expect(TokenKind::IntLit, "Array width");
          if (w) width = static_cast<int>(w->int_value);
          expect(TokenKind::Shr, "to close Array width");
        }
        return Type::array_ty(width);
      }
      [[fallthrough]];
    default:
      diags_.error(t.range, "parse-bad-type",
                   "expected a type, found " + t.str());
      advance();
      return Type::unknown();
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Block Parser::parse_block() {
  Block block;
  if (!expect(TokenKind::LBrace, "to open block")) return block;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    StmtPtr s = parse_stmt();
    if (s) {
      block.push_back(std::move(s));
    } else {
      synchronize();
    }
  }
  expect(TokenKind::RBrace, "to close block");
  return block;
}

StmtPtr Parser::parse_stmt() {
  const SrcLoc start = peek().range.begin;

  if (check(TokenKind::KwIf)) return parse_if();

  if (check(TokenKind::KwGenerate) || check(TokenKind::KwMGenerate)) {
    auto s = std::make_unique<GenerateStmt>();
    s->multicast = check(TokenKind::KwMGenerate);
    advance();
    s->event = parse_expr();
    if (!s->event) return nullptr;
    expect(TokenKind::Semi, "after generate");
    s->range = SrcRange{start, peek().range.begin};
    return s;
  }

  if (check(TokenKind::KwReturn)) {
    advance();
    auto s = std::make_unique<ReturnStmt>();
    if (!check(TokenKind::Semi)) {
      s->value = parse_expr();
      if (!s->value) return nullptr;
    }
    expect(TokenKind::Semi, "after return");
    s->range = SrcRange{start, peek().range.begin};
    return s;
  }

  if (type_starts_here()) {
    auto s = std::make_unique<LocalDeclStmt>();
    s->declared_type = parse_type();
    const Token* name = expect(TokenKind::Ident, "local variable name");
    if (!name) return nullptr;
    s->name = name->text;
    if (!expect(TokenKind::Assign, "local variables must be initialized")) {
      return nullptr;
    }
    s->init = parse_expr();
    if (!s->init) return nullptr;
    expect(TokenKind::Semi, "after local declaration");
    s->range = SrcRange{start, peek().range.begin};
    return s;
  }

  // `x = e;` assignment.
  if (check(TokenKind::Ident) && peek(1).is(TokenKind::Assign)) {
    auto s = std::make_unique<AssignStmt>();
    s->name = advance().text;
    advance();  // '='
    s->value = parse_expr();
    if (!s->value) return nullptr;
    expect(TokenKind::Semi, "after assignment");
    s->range = SrcRange{start, peek().range.begin};
    return s;
  }

  // Expression statement (Array.set(...), function call, ...).
  auto s = std::make_unique<ExprStmt>();
  s->expr = parse_expr();
  if (!s->expr) return nullptr;
  expect(TokenKind::Semi, "after expression statement");
  s->range = SrcRange{start, peek().range.begin};
  return s;
}

StmtPtr Parser::parse_if() {
  const SrcLoc start = peek().range.begin;
  advance();  // if
  auto s = std::make_unique<IfStmt>();
  if (!expect(TokenKind::LParen, "after 'if'")) return nullptr;
  s->cond = parse_expr();
  if (!s->cond) return nullptr;
  expect(TokenKind::RParen, "after if condition");
  s->then_block = parse_block();
  if (match(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf)) {
      StmtPtr nested = parse_if();
      if (nested) s->else_block.push_back(std::move(nested));
    } else {
      s->else_block = parse_block();
    }
  }
  s->range = SrcRange{start, peek().range.begin};
  return s;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parse_binary(int min_prec) {
  ExprPtr lhs = parse_unary();
  if (!lhs) return nullptr;
  while (true) {
    const int prec = binop_precedence(peek().kind);
    if (prec < 0 || prec < min_prec) return lhs;
    const Token& op_tok = advance();
    ExprPtr rhs = parse_binary(prec + 1);  // left-associative
    if (!rhs) return nullptr;
    auto bin = std::make_unique<BinaryExpr>();
    bin->op = token_to_binop(op_tok.kind);
    bin->range = SrcRange{lhs->range.begin, peek().range.begin};
    bin->lhs = std::move(lhs);
    bin->rhs = std::move(rhs);
    lhs = std::move(bin);
  }
}

ExprPtr Parser::parse_unary() {
  const SrcLoc start = peek().range.begin;
  UnOp op;
  if (match(TokenKind::Minus)) {
    op = UnOp::Neg;
  } else if (match(TokenKind::Bang)) {
    op = UnOp::Not;
  } else if (match(TokenKind::Tilde)) {
    op = UnOp::BitNot;
  } else {
    return parse_primary();
  }
  auto u = std::make_unique<UnaryExpr>();
  u->op = op;
  u->sub = parse_unary();
  if (!u->sub) return nullptr;
  u->range = SrcRange{start, peek().range.begin};
  return u;
}

ExprPtr Parser::parse_primary() {
  const Token& t = peek();
  const SrcLoc start = t.range.begin;

  if (t.is(TokenKind::IntLit)) {
    advance();
    auto e = std::make_unique<IntLitExpr>();
    e->value = t.int_value;
    e->is_time = t.is_time;
    e->range = t.range;
    return e;
  }
  if (t.is(TokenKind::KwTrue) || t.is(TokenKind::KwFalse)) {
    advance();
    auto e = std::make_unique<BoolLitExpr>();
    e->value = t.is(TokenKind::KwTrue);
    e->range = t.range;
    return e;
  }
  if (match(TokenKind::LParen)) {
    ExprPtr inner = parse_expr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return inner;
  }
  if (t.is(TokenKind::Ident)) {
    advance();
    std::string name = t.text;
    // Qualified name: Array.get, Event.delay, Sys.time, ...
    if (match(TokenKind::Dot)) {
      const Token* member = expect(TokenKind::Ident, "after '.'");
      if (!member) return nullptr;
      name += ".";
      name += member->text;
    }
    if (check(TokenKind::LParen)) {
      advance();
      auto call = std::make_unique<CallExpr>();
      call->callee = std::move(name);
      if (!check(TokenKind::RParen)) {
        do {
          ExprPtr arg = parse_expr();
          if (!arg) return nullptr;
          call->args.push_back(std::move(arg));
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call arguments");
      call->range = SrcRange{start, peek().range.begin};
      return call;
    }
    auto ref = std::make_unique<VarRefExpr>();
    ref->name = std::move(name);
    ref->range = t.range;
    return ref;
  }

  diags_.error(t.range, "parse-bad-expr",
               "expected an expression, found " + t.str());
  return nullptr;
}

}  // namespace lucid::frontend
