import itertools

from ffdyn import FieldSpec
from ffdyn.groupalg import CyclicSeq

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F4 = FieldSpec.of_order(4)
F8 = FieldSpec.of_order(8)
F9 = FieldSpec.of_order(9)


def all_seqs(spec, n):
    for vals in itertools.product(range(spec.q), repeat=n):
        yield CyclicSeq(spec, vals)


def seq(spec, *vals):
    return CyclicSeq(spec, vals)
