"""Known-bad fixture: reference cycles closure-cycle flags."""


def walk_tree(root):
    out = []

    def visit(node):  # recursive closure
        out.append(node)
        for child in node.children:
            visit(child)

    visit(root)
    return out


def ping_pong(n):
    def ping(k):  # mutual recursion: ping -> pong -> ping
        return 0 if k == 0 else pong(k - 1)

    def pong(k):  # ... and pong -> ping -> pong
        return 0 if k == 0 else ping(k - 1)

    return ping(n)


class Base:
    def _inherited(self, node):
        return node


class Planner(Base):
    def __init__(self, fast):
        # A bound method stored on its own instance, twice in one line.
        self._cost = self._cost_fast if fast else self._cost_slow
        self._other = self._inherited  # inherited, still bound to self

    def _cost_fast(self, node):
        return 1.0

    def _cost_slow(self, node):
        return 2.0

    def depth(self, node):
        def depth_of(n):  # recursive closure inside a method
            return 1 + max((depth_of(c) for c in n.children), default=0)

        return depth_of(node)
