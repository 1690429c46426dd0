"""The immutable node that every tree of the package is built from, and the
one way such a tree is walked: a plan of its distinct nodes, children first,
and loops over that plan.  A node checks its fields when it is built, so
once a public call has checked its root, nothing below it is checked again."""

from functools import wraps

from .errors import BudgetExceeded, _natural, _shown


def _printer(text):
    """text(node), where an int past the interpreter's limit on the digits
    of an int-to-str conversion is a BudgetExceeded that gives its size as
    2^n, as the Goedel coder names a code too large to build, in place of
    the interpreter's ValueError."""
    @wraps(text)
    def printed(node):
        try:
            return text(node)
        except ValueError:
            n = max([v.bit_length() for x in _plan(node, _subnodes)[0]
                     for v in x._values() if type(v) is int] or [0])
            if n <= 3 * 640:  # under 640 digits, which every limit allows
                raise
            raise BudgetExceeded(f"an int of at least 2^{n - 1} has more digits than "
                                 "the interpreter's int-to-str limit") from None
    return printed


class Node:
    """An immutable record whose fields are the names in the __slots__ of
    its class and its bases that do not start with "_" (those hold caches).
    _kinds gives, field by field, a class the value must be an instance of,
    (class,) for a tuple of them, built from any iterable and refused as a
    bad item is when not iterable, or int for a natural number, which
    errors._natural checks.  A class that sets _refusal = (error type, text)
    is a kind, never built itself.  == and hash are structural at any depth
    and meet each distinct node, or pair of nodes, once; a pickle or copy
    rebuilds the distinct nodes of a node's plan from their fields, one
    after another."""

    __slots__ = ("_hash", "_code")
    _fields = _kinds = ()

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in vars(cls).get("__slots__", ()) if n[0] != "_")
        # each class gets _init, which checks each field that has a kind and
        # sets it through its slot descriptor, and _values; _init is its
        # __init__ unless it has one.  A kind's _init refuses the kind itself
        names, ns = cls._fields, {"_refuse": _refuse, "_items": _items, "_natural": _natural}
        checks = "  _refuse(type(self), self)\n" if "_refusal" in vars(cls) else ""
        for n, k in zip(names, cls._kinds):
            v = n
            if type(k) is tuple:  # the check runs on each item c
                k, v = k[0], "c"
                checks += f"  {n} = _items({n}, K_{n})\n  for c in {n}:\n "
            ns[f"K_{n}"] = k
            checks += (f"  _natural({v})\n" if k is int
                       else f"  if not isinstance({v}, K_{n}): _refuse(K_{n}, {v})\n")
        exec(f"def make({', '.join('_' + n for n in names)}):\n"
             f" def __init__(self, {', '.join(names)}):\n{checks}"
             f"  pass; {'; '.join(f'_{n}(self, {n})' for n in names)}\n"
             f" def _values(self):\n"
             f"  return ({''.join(f'self.{n}, ' for n in names)})\n"
             f" return __init__, _values", ns)
        cls._init, cls._values = ns["make"](*(getattr(cls, n).__set__ for n in names))
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in vars(cls):
            cls.__init__ = cls._init

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if type(a) is not type(b) or type(a) is tuple and len(a) != len(b):
                return False
            if type(a) is not tuple:
                if (id(a), id(b)) in seen:
                    continue
                seen.add((id(a), id(b)))
                a, b = a._values(), b._values()
            for x, y in zip(a, b):
                if x is y:
                    continue
                if isinstance(x, Node) or type(x) is tuple:
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # a node's fields are hashed once its children's hashes are kept, so
        # hashing them does not recurse; kept hashes end the plan
        h = getattr(self, "_hash", None)
        if h is None:
            for x in _plan(self, lambda x: [c for c in _subnodes(x)
                                            if getattr(c, "_hash", None) is None])[0]:
                h = hash((type(x), x._values()))
                object.__setattr__(x, "_hash", h)
        return h

    def __reduce__(self):
        # the plan as one flat list of [type, values] entries, where a node
        # stands for its entry: pickle and deepcopy meet each entry after
        # the ones it names and keep it (deepcopy keeps a list, but not a
        # tuple it returns unchanged), so they never recurse, and sharing is kept
        entries = {}
        for x in _plan(self, _subnodes)[0]:
            entries[id(x)] = [type(x), tuple(_swap(v, entries) for v in x._values())]
        return _rebuilt, (list(entries.values()),)

    @_printer
    def __repr__(self):
        def visit(x, take):
            if type(x).__repr__ is not Node.__repr__:
                return repr(x)
            def text(v):
                return take(v) if isinstance(v, Node) else repr(v)
            fields = ", ".join(
                f"{n}=({', '.join(map(text, v))}{',' * (len(v) == 1)})" if type(v) is tuple
                else f"{n}={text(v)}" for n, v in zip(x._fields, x._values()))
            return f"{type(x).__qualname__}({fields})"
        return _folded(self, _subnodes, visit)


def _refuse(kind, x):
    # raise the error for x where a value of kind, a class, belongs
    error, text = kind._refusal
    raise error(f"{text}: {_shown(x)}")


def _items(v, kind):
    """The items of v, the value of a tuple field of kind, as a tuple; v is
    refused as a value of kind when it is not iterable."""
    try:
        it = iter(v)
    except TypeError:
        pass
    else:
        return tuple(it)
    _refuse(kind, v)


def _of_kind(x, kind):
    """x, the root of a public call, when it is of kind, a class; refused
    otherwise."""
    if not isinstance(x, kind):
        _refuse(kind, x)
    return x


def _subnodes(x):
    """The nodes among the field values of x, a tuple's items included."""
    return [c for v in x._values() for c in (v if type(v) is tuple else (v,))
            if isinstance(c, Node)]


def _swap(v, table):
    # the image of v in table, or of each item of a tuple v
    return tuple([table.get(id(c), c) for c in v]) if type(v) is tuple else table.get(id(v), v)


def _rebuilt(entries):
    """The node that the last of Node.__reduce__'s entries stands for."""
    nodes = {}
    for e in entries:
        nodes[id(e)] = e[0](*[_swap(v, nodes) for v in e[1]])
    return nodes[id(e)]


def _plan(node, children):
    """The distinct objects under node, each after those that children(x)
    lists for it, left to right, and node last; and the ids of those met
    more than once.  children(x) runs once per object, when it is first met.
    Each object waits on an explicit stack with an iterator over its
    children, so deep trees cost no recursion."""
    order, shared, seen = [], set(), {id(node)}
    stack = [(node, iter(children(node)))]
    while stack:
        for c in stack[-1][1]:
            if id(c) in seen:
                shared.add(id(c))
                continue
            seen.add(id(c))
            kids = children(c)
            if kids:  # they go first
                stack.append((c, iter(kids)))
                break
            order.append(c)
        else:
            order.append(stack.pop()[0])
    return order, shared


def _folded(node, children, visit):
    """The result of visit(node, take), after visit(x, take) has run for
    every object x of node's plan, in order; take(c) is the result for a
    child c, dropped once read unless c is shared."""
    order, shared = _plan(node, children)
    done = {}

    def take(c):
        return done[id(c)] if id(c) in shared else done.pop(id(c))
    for x in order:
        done[id(x)] = visit(x, take)
    return done[id(node)]


def _compiled(node, compile):
    """The compiled form of node: compile(x, take) builds the form of x from
    the forms take(c) gives for its children c, once per distinct node at any
    depth.  Each form is kept on its node; a tree holds the nodes of one
    layer only, so its forms are all compile's.  An error is kept until a
    parent takes it, so errors surface as a depth-first compile meets them."""
    code = getattr(node, "_code", None)
    if code is not None:
        return code
    failed = {}

    def take(c):
        if id(c) in failed:
            raise failed[id(c)]
        return c._code
    for x in _plan(node, lambda x: [c for c in _subnodes(x)
                                    if getattr(c, "_code", None) is None])[0]:
        try:
            object.__setattr__(x, "_code", compile(x, take))
        except Exception as exc:
            failed[id(x)] = exc
    return take(node)
