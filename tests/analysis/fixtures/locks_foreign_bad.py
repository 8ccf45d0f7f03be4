"""Known-bad fixture: a service reaching into its cache's lock and entries."""

from threading import Lock


class Cache:
    def __init__(self):
        self._lock = Lock()
        self._entries = {}
        self._hits = 0


class Service:
    def __init__(self):
        self._cache = Cache()

    def probe(self, keys):
        cache = self._cache
        found = []
        with cache._lock:
            for key in keys:
                if key in cache._entries:
                    cache._hits += 1
                    found.append(cache._entries[key])
        return found

    def insert(self, key, value):
        with self._cache._lock:
            self._cache._entries[key] = value

    def forget(self, key):
        self._cache._entries.pop(key, None)
