"""Known-good twin of locks_foreign_bad: the cache owns its lock and entries."""

from threading import Lock

_REGISTRY_LOCK = Lock()
_registry = {}


class Cache:
    def __init__(self):
        self._lock = Lock()
        self._entries = {}
        self._hits = 0

    def get_many(self, keys):
        found = []
        with self._lock:
            for key in keys:
                if key in self._entries:
                    self._hits += 1
                    found.append(self._entries[key])
        return found

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value

    def forget(self, key):
        with self._lock:
            self._entries.pop(key, None)


class Service:
    def __init__(self):
        self._cache = Cache()

    def probe(self, keys):
        return self._cache.get_many(keys)

    def insert(self, key, value):
        self._cache.put(key, value)
        with _REGISTRY_LOCK:
            _registry[key] = value

    def peek(self, key):
        # Reading another object's private state is not this rule's business.
        return self._cache._entries.get(key)
