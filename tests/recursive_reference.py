"""The recursive term walks, kept as references for the iterative ones.

``check_sort``, ``evaluate``, ``substitute``, ``apply_translation`` and
``term_to_sexpr`` used to recurse once per term level, so a term deeper than
the interpreter's recursion limit could not be elaborated, folded or
printed.  The package now walks terms on explicit stacks.  These are the
recursive versions as they were, so that tests can compare the new walks
with them on terms shallow enough for both: equal results, and errors of
the same type, message and path.
"""

from __future__ import annotations

from tracealg.cli import _syntax
from tracealg.kernel import (
    AmbiguousSort,
    App,
    ArityMismatch,
    MissingBinding,
    SortMismatch,
    UnknownOperator,
    UnknownVariable,
    Var,
)


def check_sort(sig, ctx, raw, expected=None):
    def walk(node, want, path):
        if isinstance(node, str):
            if node not in ctx:
                raise UnknownVariable(f"variable {node!r} not in context", path)
            sort = ctx[node]
            if want is not None and sort is not want:
                raise SortMismatch(
                    f"variable {node!r} has sort {sort.value}, expected {want.value}", path
                )
            return Var(node, sort)
        if not isinstance(node, (tuple, list)) or not node or not isinstance(node[0], str):
            raise UnknownOperator(f"malformed node {node!r}", path)
        name, children = node[0], tuple(node[1:])
        ops = sig.candidates(name)
        if not ops:
            raise UnknownOperator(f"unknown operator {name!r}", path)
        if len(ops) > 1:
            if want is not None:
                ops = tuple(op for op in ops if op.result is want)
            else:
                # infer from the first argument that resolves on its own
                for i, child in enumerate(children):
                    try:
                        probe = walk(child, None, path + (i,))
                    except AmbiguousSort:
                        continue
                    ops = tuple(
                        op for op in ops if op.scheme(len(children))[i : i + 1] == (probe.sort,)
                    )
                    break
            if len(ops) != 1:
                raise AmbiguousSort(
                    f"cannot resolve the sort of {name!r} here; annotate via an enclosing operator",
                    path,
                )
        op = ops[0]
        if want is not None and op.result is not want:
            raise SortMismatch(
                f"operator {name!r} has sort {op.result.value}, expected {want.value}", path
            )
        if not op.accepts_arity(len(children)):
            raise ArityMismatch(
                f"operator {name!r} expects {len(op.args)} arguments, got {len(children)}", path
            )
        scheme = op.scheme(len(children))
        args = tuple(
            walk(child, scheme[i], path + (i,)) for i, child in enumerate(children)
        )
        return App(op.name, args, op.result)

    return walk(raw, expected, ())


def substitute(t, theta):
    memo = {}

    def walk(node):
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            if node.name not in theta:
                raise MissingBinding(f"no binding for variable {node.name!r}")
            image = theta[node.name]
            if image.sort is not node.sort:
                raise SortMismatch(
                    f"binding for {node.name!r} has sort {image.sort.value}, "
                    f"expected {node.sort.value}"
                )
            out = image
        else:
            out = App(node.op, tuple(walk(a) for a in node.args), node.sort)
        memo[id(node)] = out
        return out

    return walk(t)


def evaluate(alg, env, t):
    memo = {}

    def walk(node):
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            if node.name not in env:
                raise MissingBinding(f"no environment value for variable {node.name!r}")
            value = env[node.name]
        else:
            op = alg.signature.operators[node.op]
            value = alg.apply(op, tuple(walk(a) for a in node.args))
        memo[id(node)] = value
        return value

    return walk(t)


def apply_translation(tr, t):
    memo = {}

    def walk(node):
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            out = Var(node.name, tr.sort_map[node.sort])
        else:
            translated = tuple(walk(a) for a in node.args)
            image = tr.op_images.get(node.op)
            if image is None:
                out = tr._unlisted(node.op, translated)
            else:
                out = substitute(image, {f"x{i}": arg for i, arg in enumerate(translated)})
        memo[id(node)] = out
        return out

    return walk(t)


def term_to_sexpr(t, theory):
    if isinstance(t, Var):
        return t.name
    args = "".join(" " + term_to_sexpr(a, theory) for a in t.args)
    spelling = _syntax(theory.name, theory.space.locations)[1].get(t.op)
    if spelling is None:  # a join
        return f"(or{args})" if args else "bot"
    return f"({spelling}{args})"
