"""Architecture descriptors: typed block specs and their per-kind rules, shape
propagation, validation, JSON format, presets, rescaling.

A descriptor is an ordered list of block specs plus the input geometry. Stage-structured
families (convnext, resnet_bottleneck) additionally carry their stage widths/depths so
that width/depth multipliers can be applied; flat families (ran_e, generic) are plain
block lists and cannot be rescaled.

Each block kind is one class that carries all of its rules: kind name, output channels,
stride, expanded width, validation, output shape, MACs/parameters, non-linear units
and NN-Mass terms. propagate_shapes is the one walk along the main path; costmodel and
topology add up the block rules at the shapes it gives.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Optional

ACTIVATION_KINDS = ("none", "relu", "relu6", "prelu", "gelu", "hswish", "exp_kernel")
# The kinds that carry a parameter, and its Activation field; a file must give it.
ACTIVATION_PARAMETER = {"prelu": "alpha", "exp_kernel": "clamp"}


class NnscaleError(ValueError):
    """Base of every nnscale domain error; the CLI reports them with exit code 1."""


class ArchError(NnscaleError):
    """Raised for malformed architecture files or invariant violations."""


class CostError(NnscaleError):
    """Raised for shape mismatches or non-integral stride divisions."""


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf (96*0.666 -> 64)."""
    return int(math.floor(x + 0.5))


def int_ceil(x: float) -> int:
    """Ceiling that forgives float noise within 1e-9 of an integer."""
    r = round(x)
    if abs(x - r) <= 1e-9:
        return int(r)
    return int(math.ceil(x))


# Every number in a descriptor lies within +-2**31, so expanded widths, costs and
# masses derived from it convert to float without overflow.
NUMBER_BOUND = 2**31


def _is_number(value, integer: bool = False) -> bool:
    """A real int (or, unless `integer`, a float) within +-NUMBER_BOUND. Bools, strings,
    None, NaN and infinities are not numbers here."""
    if type(value) is not int and (integer or type(value) is not float):
        kind = numbers.Integral if integer else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            return False
    return -NUMBER_BOUND <= value <= NUMBER_BOUND


# Field annotation -> (test, what a value must be). Block fields are checked
# against their record annotation, so a new field needs no check of its own.
_TYPES = {
    "int": (lambda v: _is_number(v, integer=True), "an integer in [-2**31, 2**31]"),
    "Optional[int]": (lambda v: v is None or _is_number(v, integer=True),
                      "null or an integer in [-2**31, 2**31]"),
    "float": (_is_number, "a finite number in [-2**31, 2**31]"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "Activation": (lambda v: isinstance(v, Activation), "an activation"),
}


def _check_type(value, annotation: str, what: str) -> None:
    test, expected = _TYPES[annotation]
    if not test(value):
        raise ArchError(f"{what} must be {expected}, got {value!r}")


class Record:
    """Frozen record base that generates no code per class. A subclass's fields are
    its string annotations, base classes first; a class attribute of the same name is
    that field's default, and fields with defaults come last. Fields are given by
    position or keyword, then __post_init__ runs. Records equal only records of their
    own class, hash by field values, repr as Name(field=value, ...) and are frozen."""

    def __init_subclass__(cls):
        cls._fields = {}  # field name -> annotation string
        for base in reversed(cls.__mro__):
            cls._fields.update(vars(base).get("__annotations__", {}))
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
        if tuple(cls._fields)[len(cls._fields) - len(cls._defaults):] != tuple(cls._defaults):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) != len(names) or kwargs:  # bind by keyword, checking every field
            given = dict(zip(names, args))
            if len(args) > len(names) or not kwargs.keys() <= names.keys() - given.keys():
                raise TypeError(f"{type(self).__name__} takes each of {', '.join(names)} once")
            args = {**self._defaults, **given, **kwargs}
            if len(args) < len(names):
                raise TypeError(f"missing field(s) {', '.join(n for n in names if n not in args)}")
            args = map(args.__getitem__, names)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        values = ", ".join(f"{n}={v!r}" for n, v in self.__dict__.items())
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__


def fields(record) -> dict:
    """A record class's or instance's field table: name -> annotation string."""
    return record._fields


def replace(record, **changes):
    """A new record of the same class with the given fields changed; validates again."""
    return type(record)(**{**record.__dict__, **changes})


def asdict(value):
    """A record as a field name -> value dict, with the records in its fields and in
    lists, tuples and dicts turned into dicts as well; any other value as it is."""
    if isinstance(value, Record):
        value = value.__dict__
    if isinstance(value, dict):
        return {k: asdict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(asdict, value))
    return value


class Activation(Record):
    """Elementwise non-linearity tag. `alpha` is the prelu slope, `clamp` bounds the
    pre-exponential input of exp_kernel."""

    kind: str
    alpha: float = 0.0
    clamp: float = 10.0

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ArchError(f"unknown activation kind {self.kind!r}")
        for kind, name in ACTIVATION_PARAMETER.items():
            _check_type(getattr(self, name), "float", f"{kind} {name}")
        if self.kind == "exp_kernel" and not self.clamp > 0:
            raise ArchError("exp_kernel clamp must be > 0")


NONE = Activation("none")
RELU = Activation("relu")
GELU = Activation("gelu")


def prelu(alpha: float) -> Activation:
    return Activation("prelu", alpha=alpha)


def exp_kernel(clamp: float = 10.0) -> Activation:
    return Activation("exp_kernel", clamp=clamp)


class Shape(Record):
    channels: int
    height: int
    width: int

    def __post_init__(self):
        if self.channels <= 0 or self.height <= 0 or self.width <= 0:
            raise CostError(f"shape fields must be positive, got {self}")


def _conv_cost(cin: int, cout: int, k: int, out_hw: int):
    """k x k dense conv with bias, then a norm affine pair per out channel."""
    macs = out_hw * k * k * cin * cout
    params = k * k * cin * cout + cout + 2 * cout
    return macs, params


def _dw_cost(c: int, k: int, out_hw: int):
    """k x k depthwise conv with bias and norm."""
    return out_hw * k * k * c, k * k * c + c + 2 * c


def _odd(k: int) -> bool:
    return k >= 1 and k % 2 == 1


def _require(ok: bool, i: int, rule: str) -> None:
    if not ok:
        raise ArchError(f"block {i}: {rule}")


class _Block(Record):
    """Rules of a block kind at input width c or shape s: channels_out(c), out_shape(s),
    the expanded width mid(c), validate(i, c, last), cost(s) -> (MACs, params),
    non-linear units(c), and the NN-Mass terms mass_inputs(c) (i_b), cell_density (rho_b,
    non-zero exactly for the kinds that carry mass) and, on those kinds, k = X / m. Each
    kind sets `kind` and `stride` and overrides what differs from: same shape, no units,
    no mass."""

    kind = ""
    cell_density = Fraction(0)

    def channels_out(self, c: int) -> int:
        return c

    def out_shape(self, s: Shape) -> Shape:
        return s

    def mid(self, c: int) -> int:
        return round_half_up(self.expansion * c)

    def validate(self, i: int, c: int, last: bool) -> None:
        for name, annotation in self._fields.items():  # not fields(): run per block
            test, expected = _TYPES[annotation]
            value = getattr(self, name)
            if not test(value):
                raise ArchError(f"block {i}: {name} must be {expected}, got {value!r}")

    def _validate_expansion(self, i: int, c: int) -> None:
        """A positive expansion that leaves at least one expanded channel at width c."""
        _require(self.expansion > 0, i, "expansion must be > 0")
        if self.mid(c) < 1:
            raise ArchError(f"block {i}: expanded width rounds to 0 (expansion "
                            f"{self.expansion} at width {c})")

    def units(self, c: int) -> int:
        return 0

    def mass_inputs(self, c: int) -> int:
        return 0


class _Conv(_Block):
    """A convolution with its own out_channels and stride (same padding, so the
    output side is the input side / stride, which must divide evenly)."""

    def channels_out(self, c: int) -> int:
        return self.out_channels

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        _require(self.out_channels > 0, i, "out_channels must be positive")
        _require(self.stride in (1, 2, 4), i, "stride must be one of 1, 2, 4")

    def out_shape(self, s: Shape) -> Shape:
        st = self.stride
        for side in (s.height, s.width):
            if side % st != 0:
                raise CostError(f"{self.kind}: spatial size {side} not divisible by stride {st}")
        return Shape(self.out_channels, s.height // st, s.width // st)

    def cost(self, s: Shape) -> tuple:
        out = self.out_shape(s)
        return _conv_cost(s.channels, self.out_channels, self.kernel, out.height * out.width)


class Stem(_Conv):
    kernel: int
    stride: int
    out_channels: int

    kind = "stem"

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        _require(self.kernel >= 1, i, f"{self.kind} kernel must be >= 1")


class RegularConv(_Conv):
    kernel: int
    stride: int
    out_channels: int
    activation: Activation = RELU

    kind = "regular_conv"

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        _require(_odd(self.kernel), i, "regular_conv kernel must be odd")

    def units(self, c: int) -> int:
        return self.out_channels if self.activation.kind != "none" else 0


class Ibn(_Conv):
    """Inverted bottleneck: 1x1 expand -> depthwise k x k -> 1x1 project."""

    expansion: float
    dw_kernel: int
    stride: int
    out_channels: int
    residual: bool = False

    kind = "ibn"

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        self._validate_expansion(i, c)
        _require(_odd(self.dw_kernel), i, "ibn depthwise kernel must be odd")
        if self.residual and (self.stride != 1 or self.out_channels != c):
            raise ArchError(
                f"block {i}: residual ibn requires stride=1 and matching in/out "
                f"channels (got stride={self.stride}, in={c}, out={self.out_channels})"
            )

    def cost(self, s: Shape) -> tuple:
        c, mid, out = s.channels, self.mid(s.channels), self.out_shape(s)
        out_hw = out.height * out.width
        m1, p1 = _conv_cost(c, mid, 1, s.height * s.width)
        m2, p2 = _dw_cost(mid, self.dw_kernel, out_hw)
        m3, p3 = _conv_cost(mid, self.out_channels, 1, out_hw)
        return m1 + m2 + m3, p1 + p2 + p3

    def units(self, c: int) -> int:
        return 2 * self.mid(c)


class _ConvNextBase(_Block):
    """Rules the plain and split ConvNext blocks share: depthwise k x k, an MLP and a
    residual add. At input width w: i_b = (2+e) w, rho_b = 1/3 and mass (2+e)/3 w."""

    stride = 1
    cell_density = Fraction(1, 3)

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        self._validate_expansion(i, c)
        _require(_odd(self.dw_kernel), i, "depthwise kernel must be odd")

    def mass_inputs(self, c: int) -> int:
        # depthwise sees c, the expand 1x1 sees c, the project 1x1 sees mid
        return 2 * c + self.mid(c)


class ConvNextBlock(_ConvNextBase):
    """Depthwise k x k -> norm -> 1x1 expand -> gelu -> 1x1 project, residual add.
    X = e w, so k = 3e/(2+e), exact whenever e w is whole."""

    expansion: float = 4.0
    dw_kernel: int = 7

    kind = "convnext_block"

    def cost(self, s: Shape) -> tuple:
        c, hw, k = s.channels, s.height * s.width, self.dw_kernel
        mid = self.mid(c)
        macs = hw * (k * k * c + c * mid + mid * c)
        # depthwise + bias, norm pair, two pointwise + biases, layer scale
        params = k * k * c + c + 2 * c + c * mid + mid + mid * c + c + c
        return macs, params

    def units(self, c: int) -> int:
        return self.mid(c)

    @property
    def k(self) -> Fraction:
        e = Fraction(self.expansion)
        return 3 * e / (2 + e)


class ConvNextSplitBlock(_ConvNextBase):
    """ConvNext block with the MLP split into a non-linear branch keeping
    ceil(nonlinear_fraction * expansion * w1) channels and a linear branch merged
    into a single 1x1 w1->w1 convolution (optionally followed by branch_activation).
    X = f e w without a branch activation, so k = 3fe/(2+e), else ConvNext's 3e/(2+e)."""

    expansion: float
    dw_kernel: int
    nonlinear_fraction: float
    branch_activation: Activation = NONE

    kind = "convnext_split_block"

    def kept(self, c: int) -> int:
        """Width of the non-linear branch at input width c."""
        return int_ceil(self.nonlinear_fraction * self.expansion * c)

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        _require(0 < self.nonlinear_fraction < 1, i, "nonlinear_fraction must lie in (0, 1)")
        if self.kept(c) >= self.mid(c):
            raise ArchError(f"block {i}: {self._keeps_all(c)}")

    def _keeps_all(self, c: int) -> str:
        return (f"split keeps all {self.mid(c)} expanded channels (fraction "
                f"{self.nonlinear_fraction} at width {c}); use a plain block")

    def cost(self, s: Shape) -> tuple:
        c, hw, k = s.channels, s.height * s.width, self.dw_kernel
        mid, kept = self.mid(c), self.kept(c)
        if kept >= mid:  # validation rejects this; a block costed on its own may not be
            raise CostError(self._keeps_all(c))
        macs = hw * (k * k * c + c * kept + kept * c + c * c)
        params = k * k * c + c + 2 * c          # depthwise + norm
        params += c * kept + kept + kept * c + c  # non-linear branch two 1x1
        params += c * c + c                      # linear branch single 1x1
        params += c                              # layer scale
        return macs, params

    def units(self, c: int) -> int:
        # with a branch activation the linear branch's mid - kept channels count too
        return self.kept(c) if self.branch_activation.kind == "none" else self.mid(c)

    @property
    def k(self) -> Fraction:
        e = Fraction(self.expansion)
        f = Fraction(self.nonlinear_fraction) if self.branch_activation.kind == "none" else 1
        return 3 * f * e / (2 + e)


class ResNetBottleneckBlock(_Block):
    """1x1 -> k x k -> 1x1 bottleneck with residual add; mid width = expansion * w.
    At input width w: i_b = (1+2e) w, rho_b = 1/(2+e), mass (1+2e)/(2+e) w and
    X = 2e w, so k = 2e(2+e)/(1+2e), exact whenever e w is whole."""

    expansion: float
    mid_kernel: int = 3

    kind = "resnet_bottleneck"
    stride = 1

    @property
    def cell_density(self) -> Fraction:
        return 1 / (2 + Fraction(self.expansion))

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        self._validate_expansion(i, c)
        _require(_odd(self.mid_kernel), i, "mid kernel must be odd")

    def cost(self, s: Shape) -> tuple:
        c, hw, mid = s.channels, s.height * s.width, self.mid(s.channels)
        m1, p1 = _conv_cost(c, mid, 1, hw)
        m2, p2 = _conv_cost(mid, mid, self.mid_kernel, hw)
        m3, p3 = _conv_cost(mid, c, 1, hw)
        return m1 + m2 + m3, p1 + p2 + p3

    def units(self, c: int) -> int:
        return 2 * self.mid(c)

    def mass_inputs(self, c: int) -> int:
        # the first 1x1 sees c, the k x k and the last 1x1 see mid each
        return c + 2 * self.mid(c)

    @property
    def k(self) -> Fraction:
        e = Fraction(self.expansion)
        return 2 * e * (2 + e) / (1 + 2 * e)


class Downsample(Stem):
    kind = "downsample"

    def cost(self, s: Shape) -> tuple:
        macs, params = super().cost(s)
        # the norm sits before the conv, so its affine pair is per input channel
        return macs, params - 2 * self.out_channels + 2 * s.channels


class Head(_Block):
    """Classifier head. With hidden_channels set: 1x1 conv (+ optional depthwise
    dw_kernel conv) then global pool then linear. Without: norm-pool-linear."""

    classes: int
    hidden_channels: Optional[int] = None
    dw_kernel: Optional[int] = None

    kind = "head"
    stride = 1

    def channels_out(self, c: int) -> int:
        return self.classes

    def validate(self, i: int, c: int, last: bool) -> None:
        super().validate(i, c, last)
        _require(self.classes > 0, i, "classes must be positive")
        _require(self.hidden_channels is None or self.hidden_channels > 0, i,
                 "hidden_channels must be positive")
        _require(self.dw_kernel is None or self.dw_kernel >= 1, i, "head dw_kernel must be >= 1")
        _require(last, i, "head must be the final block")

    def out_shape(self, s: Shape) -> Shape:
        return Shape(self.classes, 1, 1)

    def cost(self, s: Shape) -> tuple:
        feat, hw = s.channels, s.height * s.width
        macs, params = 0, 2 * feat  # final norm before the classifier
        if self.hidden_channels is not None:
            macs, params = _conv_cost(feat, self.hidden_channels, 1, hw)
            feat = self.hidden_channels
            if self.dw_kernel is not None:
                m, p = _dw_cost(feat, self.dw_kernel, hw)
                macs, params = macs + m, params + p
        return macs + feat * self.classes, params + feat * self.classes + self.classes


_KIND_TO_CLS = {cls.kind: cls for cls in (Stem, RegularConv, Ibn, ConvNextBlock,
                                           ConvNextSplitBlock, ResNetBottleneckBlock,
                                           Downsample, Head)}


class StageFamily(Record):
    """A stage family's body block and split form (None: it has none), stem and
    downsample kernels, and the body expansion and kernel a stage file may leave out."""

    body: type
    split: Optional[type]
    stem_kernel: int
    downsample_kernel: int
    expansion: float
    kernel: int


STAGE_RULES = {
    "convnext": StageFamily(ConvNextBlock, ConvNextSplitBlock, 4, 2, 4.0, 7),
    "resnet_bottleneck": StageFamily(ResNetBottleneckBlock, None, 7, 1, 0.25, 3),
}
STAGE_FAMILIES = tuple(STAGE_RULES)
FAMILIES = STAGE_FAMILIES + ("ran_e", "generic")


class StageConfig(Record):
    """Per-stage widths/depths of a stage-structured family, with the shared block
    parameters needed to rebuild the flat block list."""

    widths: tuple
    depths: tuple
    expansion: float
    dw_kernel: int
    classes: int
    split_fraction: Optional[float] = None
    split_activation: Activation = NONE


class ArchDescriptor(Record):
    name: str
    family: str
    input_resolution: int
    input_channels: int
    blocks: tuple
    stages: Optional[StageConfig] = None


def propagate_shapes(arch: ArchDescriptor) -> list:
    """Per-block input shapes along the main path, from the descriptor's input."""
    shapes = []
    s = Shape(arch.input_channels, arch.input_resolution, arch.input_resolution)
    for block in arch.blocks:
        shapes.append(s)
        s = block.out_shape(s)
    return shapes


# A stage file's descriptor is built, validated and costed block by block, so the
# total stage depth bounds the work it can ask for. A scan builds one body block per
# stage, but refuses each candidate past the same bound.
MAX_TOTAL_DEPTH = 4096


def _check_total_depth(depths) -> None:
    if sum(depths) > MAX_TOTAL_DEPTH:
        raise ArchError(f"total stage depth {sum(depths)} exceeds {MAX_TOTAL_DEPTH}")


def _stage_lists(widths, depths):
    """Stage widths and depths as int tuples, type-checked, equal in length, positive
    and depth-bounded before any block is built."""
    for what, values in (("stage_widths", widths), ("stage_depths", depths)):
        if not isinstance(values, (list, tuple)):
            raise ArchError(f"{what} must be a list of integers")
        for v in values:
            _check_type(v, "int", f"{what} entry")
    if not widths:
        raise ArchError("stage_widths must be non-empty")
    if len(widths) != len(depths):
        raise ArchError("stage widths and depths must have equal length")
    if any(w <= 0 for w in widths) or any(d <= 0 for d in depths):
        raise ArchError("stage widths and depths must be positive")
    _check_total_depth(depths)
    return tuple(map(int, widths)), tuple(map(int, depths))


def validate_arch(arch: ArchDescriptor) -> None:
    """Check all structural invariants; raises ArchError naming block index and rule."""
    if arch.family not in FAMILIES:
        raise ArchError(f"unknown family {arch.family!r}")
    _check_type(arch.input_resolution, "int", "input_resolution")
    _check_type(arch.input_channels, "int", "input_channels")
    if arch.input_resolution <= 0 or arch.input_channels <= 0:
        raise ArchError("input_resolution and input_channels must be positive")
    if not arch.blocks:
        raise ArchError("blocks non-empty")

    c = arch.input_channels
    stride_product = 1
    for i, block in enumerate(arch.blocks):
        block.validate(i, c, i == len(arch.blocks) - 1)
        stride_product *= block.stride
        c = block.channels_out(c)

    if arch.input_resolution % stride_product != 0:
        raise ArchError(
            f"input_resolution {arch.input_resolution} not divisible by total "
            f"stride {stride_product}"
        )


def _stage_arch(name: str, family: str, st: StageConfig, resolution, input_channels):
    """Stage-structured descriptor: stem, the body block repeated per stage depth,
    a downsample between stages, head (see convnext_arch, resnet_bottleneck_arch)."""
    widths, depths = _stage_lists(st.widths, st.depths)
    st = replace(st, widths=widths, depths=depths)
    rules = STAGE_RULES[family]
    if st.split_fraction is not None and rules.split is None:
        raise ArchError(f"family {family!r} has no split form")
    body = (rules.body(st.expansion, st.dw_kernel) if st.split_fraction is None else
            rules.split(st.expansion, st.dw_kernel, st.split_fraction, st.split_activation))
    blocks = [Stem(kernel=rules.stem_kernel, stride=4, out_channels=widths[0])]
    for si, (w, d) in enumerate(zip(widths, depths)):
        if si > 0:
            blocks.append(Downsample(kernel=rules.downsample_kernel, stride=2, out_channels=w))
        blocks.extend([body] * d)
    blocks.append(Head(classes=st.classes))
    arch = ArchDescriptor(name, family, resolution, input_channels, tuple(blocks), st)
    validate_arch(arch)
    return arch


def _family_arch(family: str, name: str, widths, depths, expansion, resolution):
    """A family's descriptor at its body kernel, on 3 input channels, 1000 classes."""
    st = StageConfig(widths, depths, expansion, STAGE_RULES[family].kernel, 1000)
    return _stage_arch(name, family, st, resolution, 3)


def convnext_arch(name: str, widths, depths,
                  expansion: float = STAGE_RULES["convnext"].expansion,
                  resolution: int = 224) -> ArchDescriptor:
    """Stage-structured ConvNext-family descriptor with a norm-pool-linear head."""
    return _family_arch("convnext", name, widths, depths, expansion, resolution)


def resnet_bottleneck_arch(name: str, widths, depths,
                           expansion: float = STAGE_RULES["resnet_bottleneck"].expansion,
                           resolution: int = 224) -> ArchDescriptor:
    """Stage-structured bottleneck-ResNet descriptor; its stride-4 stem stands in for conv+pool."""
    return _family_arch("resnet_bottleneck", name, widths, depths, expansion, resolution)


# RAN-e SuperNet body rows as (expansion, stride, out_channels, residual).
# The published table lists the stem plus sixteen inverted-bottleneck rows; the
# accompanying text counts seventeen such blocks, so one 80-channel residual row at
# 14x14 is repeated (the reconstruction that reproduces the quoted ~4.7M parameter
# and ~590M MAC totals most closely).
_SUPERNET_ROWS = (
    (6, 1, 32, False),
    (6, 2, 48, False),
    (6, 2, 64, False),
    (6, 1, 80, False),
    (6, 2, 80, False),
    (6, 1, 80, True),
    (6, 1, 80, True),
    (4, 1, 96, False),
    (4, 1, 96, True),
    (6, 1, 128, False),
    (6, 1, 128, True),
    (6, 2, 160, False),
    (4, 1, 176, False),
    (4, 1, 176, True),
    (4, 1, 176, True),
    (6, 1, 224, False),
    (6, 1, 224, True),
)


def _ran_e_supernet() -> ArchDescriptor:
    blocks = [Stem(kernel=3, stride=2, out_channels=16)]
    for e, s, co, res in _SUPERNET_ROWS:
        blocks.append(
            Ibn(expansion=float(e), dw_kernel=3, stride=s, out_channels=co, residual=res)
        )
    blocks.append(Head(classes=1000, hidden_channels=1344, dw_kernel=7))
    arch = ArchDescriptor("ran-e-supernet", "ran_e", 224, 3, tuple(blocks))
    validate_arch(arch)
    return arch


_CONVNEXT_CONFIGS = {
    "convnext-t": ((96, 192, 384, 768), (3, 3, 9, 3)),
    "convnext-s": ((96, 192, 384, 768), (3, 3, 27, 3)),
    "convnext-b": ((128, 256, 512, 1024), (3, 3, 27, 3)),
    "ran-i-t": ((64, 128, 256, 511), (5, 5, 15, 5)),
    "ran-i-s": ((76, 151, 303, 606), (5, 5, 15, 5)),
    "ran-i-b": ((87, 175, 350, 699), (7, 7, 21, 7)),
}

PRESET_NAMES = tuple(sorted(_CONVNEXT_CONFIGS) + ["ran-e-supernet"])


def preset(name: str) -> ArchDescriptor:
    """Built-in architectures: convnext-t/s/b, ran-i-t/s/b, ran-e-supernet."""
    if name == "ran-e-supernet":
        return _ran_e_supernet()
    if name in _CONVNEXT_CONFIGS:
        widths, depths = _CONVNEXT_CONFIGS[name]
        return convnext_arch(name, widths, depths)
    raise ArchError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")


def scale_widths(widths, w_m: float) -> tuple:
    """Stage widths x w_m, rounded half-up; a width below 8 is degenerate. Widths are
    not snapped to a multiple: the published configs use unsnapped widths such as 511."""
    out = tuple(round_half_up(w * w_m) for w in widths)
    for w, nw in zip(widths, out):
        if nw < 8:
            raise ArchError(f"degenerate width {nw} (stage width {w} x {w_m})")
    return out


def scale_depths(depths, d_m: float) -> tuple:
    """Stage depths x d_m, rounded half-up and floored at 1, within MAX_TOTAL_DEPTH."""
    out = tuple(max(1, round_half_up(d * d_m)) for d in depths)
    _check_total_depth(out)
    return out


def scale_arch(base: ArchDescriptor, w_m: float, d_m: float) -> ArchDescriptor:
    """Rescale a stage-structured descriptor by scale_widths and scale_depths."""
    if w_m <= 0 or d_m <= 0:
        raise ArchError("multipliers must be positive")
    st = _stages_of(base)
    return restage(base, widths=scale_widths(st.widths, w_m),
                   depths=scale_depths(st.depths, d_m))


def _stages_of(arch: ArchDescriptor) -> StageConfig:
    if arch.stages is None:
        raise ArchError(f"family {arch.family!r} is not stage-structured")
    return arch.stages


def restage(arch: ArchDescriptor, **stage_changes) -> ArchDescriptor:
    """A stage-structured descriptor rebuilt with the given StageConfig fields
    replaced; a flat family has no stages and is refused."""
    st = replace(_stages_of(arch), **stage_changes)
    return _stage_arch(arch.name, arch.family, st, arch.input_resolution, arch.input_channels)


# --- JSON file format ---------------------------------------------------------

def _activation_to_json(act: Activation):
    name = ACTIVATION_PARAMETER.get(act.kind)
    return act.kind if name is None else {"kind": act.kind, name: getattr(act, name)}


def _activation_from_json(obj) -> Activation:
    if isinstance(obj, str):
        if obj in ACTIVATION_PARAMETER:
            raise ArchError(f"activation {obj!r} requires its parameter field")
        return Activation(obj)
    if isinstance(obj, dict):
        kind = obj.get("kind")
        name = ACTIVATION_PARAMETER.get(kind) if isinstance(kind, str) else None
        if name is None:
            raise ArchError(f"unknown activation object kind {kind!r}")
        _require_keys(obj, {"kind", name}, "activation")
        return Activation(kind, **{name: _float(obj.get(name), f"{kind} {name}")})
    raise ArchError(f"bad activation value {obj!r}")


def _float(value, what: str) -> float:
    """A number read from a file, type-checked, as a float."""
    _check_type(value, "float", what)
    return float(value)


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ArchError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")


def _block_to_json(block: _Block) -> dict:
    out = {"kind": block.kind}
    for name in fields(block):
        v = getattr(block, name)
        if isinstance(v, Activation):
            v = _activation_to_json(v)
        if v is not None:
            out[name] = v
    return out


def _block_from_json(obj: dict, index: int) -> _Block:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ArchError(f"block {index}: expected an object with a 'kind' field")
    kind = obj["kind"]
    cls = _KIND_TO_CLS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ArchError(f"block {index}: unknown block kind {kind!r}")
    _require_keys(obj, {"kind", *fields(cls)}, f"block {index} ({kind})")
    kwargs = {k: _activation_from_json(v) if fields(cls)[k] == "Activation" else v
              for k, v in obj.items() if k != "kind"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ArchError(f"block {index} ({kind}): {exc}") from exc


_TOP_KEYS_FULL = {"name", "family", "input_resolution", "input_channels", "blocks"}
_TOP_KEYS_STAGE = _TOP_KEYS_FULL - {"blocks"} | {
    "stage_widths", "stage_depths", "expansion", "dw_kernel", "classes", "split"
}


def parse_arch(text: str) -> ArchDescriptor:
    """Parse an architecture file (full block list or stage shorthand); validates."""
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ArchError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ArchError(f"number too long: {str(exc).partition(';')[0]}") from None
    if not isinstance(obj, dict):
        raise ArchError("architecture file must be a JSON object")
    for key in ("name", "family", "input_resolution", "input_channels"):
        if key not in obj:
            raise ArchError(f"missing required field {key!r}")
    for key in ("name", "family"):
        if not isinstance(obj[key], str):
            raise ArchError(f"{key} must be a string, got {obj[key]!r}")

    if "stage_widths" in obj or "stage_depths" in obj:
        _require_keys(obj, _TOP_KEYS_STAGE, "architecture")
        family = obj["family"]
        if family not in STAGE_FAMILIES:
            raise ArchError(f"stage shorthand requires a stage-structured family, got {family!r}")
        split = obj.get("split")
        split_fraction, split_act = None, NONE
        if split is not None:
            if not isinstance(split, dict):
                raise ArchError("split must be an object")
            _require_keys(split, {"fraction", "branch_activation"}, "split")
            split_fraction = _float(split.get("fraction"), "split fraction")
            split_act = _activation_from_json(split.get("branch_activation", "none"))
        # integers go through unconverted: validate_arch type-checks them
        st = StageConfig(
            widths=obj.get("stage_widths"), depths=obj.get("stage_depths"),
            expansion=_float(obj.get("expansion", STAGE_RULES[family].expansion), "expansion"),
            dw_kernel=obj.get("dw_kernel", STAGE_RULES[family].kernel),
            classes=obj.get("classes", 1000),
            split_fraction=split_fraction, split_activation=split_act)
        return _stage_arch(
            obj["name"], family, st, obj["input_resolution"], obj["input_channels"]
        )

    _require_keys(obj, _TOP_KEYS_FULL, "architecture")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list):
        raise ArchError("'blocks' must be a list")
    arch = ArchDescriptor(obj["name"], obj["family"], obj["input_resolution"],
                          obj["input_channels"],
                          tuple(_block_from_json(b, i) for i, b in enumerate(blocks)))
    validate_arch(arch)
    return arch


def serialize_arch(arch: ArchDescriptor) -> str:
    """Canonical JSON text; deterministic, round-trips through parse_arch."""
    import json
    obj = {key: getattr(arch, key) for key in _TOP_KEYS_FULL - {"blocks"}}
    st = arch.stages
    if st is None:
        obj["blocks"] = [_block_to_json(b) for b in arch.blocks]
    else:
        obj.update(
            stage_widths=list(st.widths),
            stage_depths=list(st.depths),
            expansion=st.expansion,
            dw_kernel=st.dw_kernel,
            classes=st.classes,
        )
        if st.split_fraction is not None:
            obj["split"] = {
                "fraction": st.split_fraction,
                "branch_activation": _activation_to_json(st.split_activation),
            }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
