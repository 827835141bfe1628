"""Immutable records, written out rather than generated: defining one
builds nothing from source text, so the modules that define records
import without exec, inspect or ast."""

from operator import itemgetter

_new = tuple.__new__  # looked up once: the parser builds a record per node


class Record(tuple):
    """The values of the fields named in ``_fields``, read by name, given
    by position or keyword (``_defaults`` holds those that may be left
    out) and never assigned.  A record equals one of its own class with
    equal compared fields (``_key``, all of them unless overridden), and
    prints as ``Class(field=value, ...)``."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            fields = cls._fields
            values = dict(cls._defaults, **dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError("%s() takes the fields %s"
                                % (cls.__name__, ", ".join(fields)))
            args = tuple(values[name] for name in fields)
        return _new(cls, args)

    def _key(self):
        return tuple(self)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self)))

    def __getnewargs__(self):  # copy and pickle rebuild by position
        return tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)
