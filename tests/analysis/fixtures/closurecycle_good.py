"""Known-good twin: the same jobs without a reference cycle."""


def walk_tree(root):
    out = []
    stack = [root]
    while stack:  # iterative walk
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def _depth_of(node):  # module-level recursion: no closure cell
    return 1 + max((_depth_of(c) for c in node.children), default=0)


def build(root):
    stages = []

    def new_stage():  # a helper another nested function calls is fine
        stages.append([])
        return stages[-1]

    def fill(node):
        new_stage().append(node)

    fill(root)
    return stages


class Planner:
    def __init__(self, fast):
        self._coster = Planner._cost_fast if fast else Planner._cost_slow
        self._version = self.version  # a property: its value is stored
        self._result = self._cost_fast(None)  # a call stores the result
        self._make = self.make  # a class method binds the class
        self._util = self.util  # a static method binds nothing

    @property
    def version(self):
        return 1

    @classmethod
    def make(cls):
        return cls(True)

    @staticmethod
    def util():
        return 0

    def _cost(self, node):
        return self._coster(self, node)

    def _cost_fast(self, node):
        return 1.0

    def _cost_slow(self, node):
        return 2.0

    def depth(self, node):
        return _depth_of(node)
