"""Walk a built structure's object graph."""

from array import array


def reachable(root):
    """Every object reachable from ``root`` through boxstab objects' slots
    and attributes, tuples, lists and dict values."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("boxstab."):
            slots = [k for cls in type(obj).__mro__ for k in getattr(cls, "__slots__", ())]
            todo.extend(getattr(obj, k) for k in slots if hasattr(obj, k))
            todo.extend(getattr(obj, "__dict__", {}).values())


def arrays(root):
    """The stdlib arrays reachable from ``root``, each once."""
    return [o for o in reachable(root) if isinstance(o, array)]
