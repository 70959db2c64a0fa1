"""Recursive-descent parser for the Polybench C subset.

Supported grammar (enough for all twelve Polybench sources used by the
paper, plus the code the LARA strategies weave in):

* preprocessor lines: ``#include``, ``#define``, ``#pragma`` and a
  passthrough for anything else (``#ifdef``/``#endif``...);
* ``typedef`` of scalar types;
* function definitions and prototypes with scalar, pointer and
  (multi-dimensional, variably-modified) array parameters;
* declarations with optional brace or expression initializers;
* statements: blocks, ``if``/``else``, ``for``, ``while``,
  ``do``/``while``, ``return``, ``break``, ``continue``, expression
  statements and ``#pragma`` statements;
* full C expression precedence from assignment down to primary,
  including casts, ``sizeof``, array indexing, calls, members and the
  ternary operator.

Unsupported C (structs/unions definitions, switch, goto, function
pointers) raises :class:`ParseError` with a source location.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.cir import ast
from repro.cir.lexer import Lexer, Token, TokenKind

_TYPE_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double", "signed", "unsigned"}
)
_QUALIFIERS = frozenset({"const", "volatile", "restrict", "static", "extern", "register", "inline"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})


class ParseError(ValueError):
    """Raised on input outside the supported C subset."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} at line {token.line}, column {token.col} (near {token.text!r})")
        self.token = token


class Parser:
    """Parse one translation unit from C source text."""

    def __init__(self, source: str, name: str = "<anonymous>") -> None:
        self._tokens = Lexer(source).tokens()
        self._pos = 0
        self._name = name
        self._typedefs = {"size_t", "ptrdiff_t", "int64_t", "uint64_t", "int32_t", "uint32_t"}

    # -- token stream helpers ----------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect_op(self, text: str) -> Token:
        token = self._next()
        if not token.is_op(text):
            raise ParseError(f"expected {text!r}", token)
        return token

    def _expect_ident(self) -> Token:
        token = self._next()
        if token.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", token)
        return token

    def _accept_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._next()
            return True
        return False

    # -- entry point ---------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        """Parse the whole source and return its translation unit."""
        unit = ast.TranslationUnit(name=self._name)
        pending_pragmas: List[ast.Pragma] = []
        while self._peek().kind is not TokenKind.EOF:
            decl = self._parse_top_level()
            if decl is None:
                continue
            if isinstance(decl, ast.Pragma):
                pending_pragmas.append(decl)
                continue
            if isinstance(decl, ast.FunctionDef) and pending_pragmas:
                decl.pragmas = pending_pragmas + decl.pragmas
                pending_pragmas = []
            elif pending_pragmas:
                unit.decls.extend(pending_pragmas)
                pending_pragmas = []
            unit.decls.append(decl)
        unit.decls.extend(pending_pragmas)
        return unit

    # -- top level -----------------------------------------------------------

    def _parse_top_level(self) -> Optional[ast.Node]:
        token = self._peek()
        if token.kind is TokenKind.DIRECTIVE:
            self._next()
            return self._parse_directive(token)
        if token.is_keyword("typedef"):
            return self._parse_typedef()
        if token.is_op(";"):
            self._next()
            return None
        return self._parse_declaration_or_function()

    def _parse_directive(self, token: Token) -> Optional[ast.Node]:
        text = token.text.lstrip("#").strip()
        if text.startswith("include"):
            rest = text[len("include") :].strip()
            if rest.startswith("<") and rest.endswith(">"):
                return ast.Include(target=rest[1:-1], system=True)
            if rest.startswith('"') and rest.endswith('"'):
                return ast.Include(target=rest[1:-1], system=False)
            raise ParseError("malformed #include", token)
        if text.startswith("define"):
            rest = text[len("define") :].strip()
            if not rest:
                raise ParseError("malformed #define", token)
            parts = rest.split(None, 1)
            # keep function-like macros whole in the name field
            if "(" in parts[0] and not parts[0].endswith(")"):
                open_index = rest.index("(")
                close_index = rest.index(")", open_index)
                return ast.MacroDef(name=rest[: close_index + 1], body=rest[close_index + 1 :].strip())
            body = parts[1] if len(parts) > 1 else ""
            # an object-like macro whose body is a type name acts as a
            # typedef for parsing purposes (Polybench's DATA_TYPE idiom)
            body_words = body.split()
            if body_words and all(
                word in _TYPE_KEYWORDS or word in self._typedefs for word in body_words
            ):
                self._typedefs.add(parts[0])
            return ast.MacroDef(name=parts[0], body=body)
        if text.startswith("pragma"):
            return ast.Pragma(text=text[len("pragma") :].strip())
        return ast.RawDirective(text=token.text)

    def _parse_typedef(self) -> ast.Typedef:
        self._next()  # 'typedef'
        base = self._parse_type()
        name = self._expect_ident().text
        self._expect_op(";")
        self._typedefs.add(name)
        return ast.Typedef(type=base, name=name)

    def _parse_declaration_or_function(self) -> ast.Node:
        storage: List[str] = []
        while self._peek().is_keyword("static", "extern", "inline"):
            storage.append(self._next().text)
        decl_type = self._parse_type()
        name_token = self._expect_ident()

        if self._peek().is_op("("):
            return self._parse_function(tuple(storage), decl_type, name_token.text)

        decl = self._parse_declarator_tail(decl_type, name_token.text)
        decl.type = replace(decl.type, qualifiers=tuple(storage) + decl.type.qualifiers)
        self._expect_op(";")
        return decl

    def _parse_function(
        self, storage: Tuple[str, ...], return_type: ast.Type, name: str
    ) -> ast.Node:
        self._expect_op("(")
        params: List[ast.Param] = []
        if not self._peek().is_op(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_op(")"):
                self._next()
            else:
                while True:
                    params.append(self._parse_param())
                    if not self._accept_op(","):
                        break
        self._expect_op(")")
        if self._accept_op(";"):
            return ast.FunctionDecl(
                return_type=return_type, name=name, params=params, storage=storage
            )
        body = self._parse_block()
        return ast.FunctionDef(
            return_type=return_type, name=name, params=params, body=body, storage=storage
        )

    def _parse_param(self) -> ast.Param:
        param_type = self._parse_type()
        name = ""
        if self._peek().kind is TokenKind.IDENT:
            name = self._next().text
        dims: List[ast.Expr] = []
        while self._peek().is_op("["):
            self._next()
            if self._peek().is_op("]"):
                dims.append(ast.Ident(name=""))
            else:
                dims.append(self._parse_expression())
            self._expect_op("]")
        return ast.Param(type=param_type, name=name, array_dims=dims)

    # -- types ---------------------------------------------------------------

    def _starts_type(self, token: Token) -> bool:
        if token.kind is TokenKind.KEYWORD:
            return token.text in _TYPE_KEYWORDS or token.text in _QUALIFIERS
        return token.kind is TokenKind.IDENT and token.text in self._typedefs

    def _parse_type(self) -> ast.Type:
        qualifiers: List[str] = []
        names: List[str] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.KEYWORD and token.text in _QUALIFIERS:
                qualifiers.append(self._next().text)
            elif token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
                names.append(self._next().text)
            elif (
                not names
                and token.kind is TokenKind.IDENT
                and token.text in self._typedefs
            ):
                names.append(self._next().text)
            else:
                break
        if not names:
            raise ParseError("expected type name", self._peek())
        pointers = 0
        while self._accept_op("*"):
            pointers += 1
            # ignore qualifiers between stars (e.g. * restrict)
            while self._peek().is_keyword("const", "restrict", "volatile"):
                self._next()
        return ast.Type(name=" ".join(names), pointers=pointers, qualifiers=tuple(qualifiers))

    # -- statements ------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        self._expect_op("{")
        block = ast.Block()
        while not self._peek().is_op("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", self._peek())
            block.stmts.append(self._parse_statement())
        self._expect_op("}")
        return block

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.DIRECTIVE:
            self._next()
            node = self._parse_directive(token)
            if isinstance(node, ast.Pragma):
                return node
            raise ParseError("only #pragma directives are allowed inside functions", token)
        if token.is_op("{"):
            return self._parse_block()
        if token.is_op(";"):
            self._next()
            return ast.EmptyStmt()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("return"):
            self._next()
            value = None if self._peek().is_op(";") else self._parse_expression()
            self._expect_op(";")
            return ast.Return(value=value)
        if token.is_keyword("break"):
            self._next()
            self._expect_op(";")
            return ast.Break()
        if token.is_keyword("continue"):
            self._next()
            self._expect_op(";")
            return ast.Continue()
        if self._starts_type(token):
            decl = self._parse_local_decl()
            self._expect_op(";")
            return decl
        expr = self._parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(expr=expr)

    def _parse_local_decl(self) -> ast.Stmt:
        decl_type = self._parse_type()
        first = self._parse_declarator_tail(decl_type, self._expect_ident().text)
        if not self._peek().is_op(","):
            return first
        decls: List[ast.Decl] = [first]
        while self._accept_op(","):
            pointers = 0
            while self._accept_op("*"):
                pointers += 1
            next_type = ast.Type(
                name=decl_type.name, pointers=pointers, qualifiers=decl_type.qualifiers
            )
            decls.append(self._parse_declarator_tail(next_type, self._expect_ident().text))
        return ast.DeclGroup(decls=decls)

    def _parse_declarator_tail(self, decl_type: ast.Type, name: str) -> ast.Decl:
        dims: List[ast.Expr] = []
        while self._peek().is_op("["):
            self._next()
            if self._peek().is_op("]"):
                dims.append(ast.Ident(name=""))
            else:
                dims.append(self._parse_expression())
            self._expect_op("]")
        init: Optional[ast.Expr] = None
        if self._accept_op("="):
            init = self._parse_initializer()
        return ast.Decl(type=decl_type, name=name, array_dims=dims, init=init)

    def _parse_initializer(self) -> ast.Expr:
        if self._peek().is_op("{"):
            self._next()
            items: List[ast.Expr] = []
            while not self._peek().is_op("}"):
                items.append(self._parse_initializer())
                if not self._accept_op(","):
                    break
            self._expect_op("}")
            return ast.CompoundLiteral(items=items)
        return self._parse_assignment()

    def _parse_controlled_statement(self) -> ast.Stmt:
        """Parse the body of a loop/if.

        An OpenMP pragma in this position applies to the statement that
        follows it (C attaches pragmas to the next statement); the pair
        is wrapped into a block so the pragma stays inside the
        controlling construct.
        """
        stmt = self._parse_statement()
        if isinstance(stmt, ast.Pragma) and stmt.is_omp:
            controlled = self._parse_controlled_statement()
            return ast.Block(stmts=[stmt, controlled])
        return stmt

    def _parse_if(self) -> ast.If:
        self._next()  # 'if'
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        then = self._parse_controlled_statement()
        other: Optional[ast.Stmt] = None
        if self._peek().is_keyword("else"):
            self._next()
            other = self._parse_controlled_statement()
        return ast.If(cond=cond, then=then, other=other)

    def _parse_for(self) -> ast.For:
        self._next()  # 'for'
        self._expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._starts_type(self._peek()):
                init = self._parse_local_decl()
            else:
                init = ast.ExprStmt(expr=self._parse_expression())
        self._expect_op(";")
        cond = None if self._peek().is_op(";") else self._parse_expression()
        self._expect_op(";")
        step = None if self._peek().is_op(")") else self._parse_expression()
        self._expect_op(")")
        body = self._parse_controlled_statement()
        return ast.For(init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> ast.While:
        self._next()  # 'while'
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        body = self._parse_controlled_statement()
        return ast.While(cond=cond, body=body)

    def _parse_do_while(self) -> ast.DoWhile:
        self._next()  # 'do'
        body = self._parse_controlled_statement()
        token = self._next()
        if not token.is_keyword("while"):
            raise ParseError("expected 'while' after do-body", token)
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return ast.DoWhile(body=body, cond=cond)

    # -- expressions -------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment()
        while self._accept_op(","):
            rhs = self._parse_assignment()
            expr = ast.BinOp(op=",", lhs=expr, rhs=rhs)
        return expr

    def _parse_assignment(self) -> ast.Expr:
        lhs = self._parse_ternary()
        token = self._peek()
        if token.kind is TokenKind.OP and token.text in _ASSIGN_OPS:
            self._next()
            rhs = self._parse_assignment()
            return ast.Assign(op=token.text, lhs=lhs, rhs=rhs)
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept_op("?"):
            then = self._parse_expression()
            self._expect_op(":")
            other = self._parse_assignment()
            return ast.TernaryOp(cond=cond, then=then, other=other)
        return cond

    _BINARY_LEVELS: List[Tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        expr = self._parse_binary(level + 1)
        while self._peek().is_op(*ops):
            op = self._next().text
            rhs = self._parse_binary(level + 1)
            expr = ast.BinOp(op=op, lhs=expr, rhs=rhs)
        return expr

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("+", "-", "!", "~", "*", "&"):
            self._next()
            operand = self._parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand)
        if token.is_op("++", "--"):
            self._next()
            operand = self._parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand)
        if token.is_keyword("sizeof"):
            self._next()
            if self._peek().is_op("(") and self._starts_type(self._peek(1)):
                self._next()
                size_type = self._parse_type()
                self._expect_op(")")
                return ast.SizeOf(type=size_type)
            operand = self._parse_unary()
            return ast.SizeOf(operand=operand)
        if token.is_op("(") and self._starts_type(self._peek(1)):
            self._next()
            cast_type = self._parse_type()
            self._expect_op(")")
            operand = self._parse_unary()
            return ast.Cast(type=cast_type, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_op("["):
                indices: List[ast.Expr] = []
                while self._accept_op("["):
                    indices.append(self._parse_expression())
                    self._expect_op("]")
                if isinstance(expr, ast.ArrayRef):
                    expr.indices.extend(indices)
                else:
                    expr = ast.ArrayRef(base=expr, indices=indices)
            elif token.is_op("("):
                self._next()
                args: List[ast.Expr] = []
                if not self._peek().is_op(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                expr = ast.Call(func=expr, args=args)
            elif token.is_op(".", "->"):
                self._next()
                field_name = self._expect_ident().text
                expr = ast.Member(base=expr, field_name=field_name, arrow=token.text == "->")
            elif token.is_op("++", "--"):
                self._next()
                expr = ast.UnaryOp(op=token.text, operand=expr, postfix=True)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._next()
        if token.kind is TokenKind.INT:
            return ast.IntLit(text=token.text)
        if token.kind is TokenKind.FLOAT:
            return ast.FloatLit(text=token.text)
        if token.kind is TokenKind.STRING:
            return ast.StringLit(text=token.text)
        if token.kind is TokenKind.CHAR:
            return ast.CharLit(text=token.text)
        if token.kind is TokenKind.IDENT:
            return ast.Ident(name=token.text)
        if token.is_op("("):
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        raise ParseError("expected expression", token)


def parse(source: str, name: str = "<anonymous>") -> ast.TranslationUnit:
    """Parse C ``source`` text into a :class:`~repro.cir.ast.TranslationUnit`."""
    return Parser(source, name=name).parse()
