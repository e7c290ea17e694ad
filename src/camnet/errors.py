"""Exception hierarchy shared across the toolkit."""


class CamnetError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(CamnetError):
    """Tensor shapes are inconsistent; the message names the offending dimension."""


class BuildError(CamnetError):
    """Model specification failed validation or shape propagation."""


class NetpbmError(CamnetError):
    """Base class for Netpbm codec failures."""


class BadMagicError(NetpbmError):
    """File does not start with P5 or P6."""


class BadMaxvalError(NetpbmError):
    """Maxval is not 255."""


class BadSizeError(NetpbmError):
    """Width or height is not positive."""


class ShortDataError(NetpbmError):
    """Pixel payload is shorter than the header promises."""


class WeightFormatError(CamnetError):
    """Base class for weight-file failures."""


class WeightMagicError(WeightFormatError):
    """Weight file does not start with the CAMF0001 magic."""


class SpecMismatchError(WeightFormatError):
    """Weight file header does not match the model spec it is loaded into."""


class TruncatedWeightsError(WeightFormatError):
    """Weight file ends mid-tensor."""


class DataError(CamnetError):
    """Dataset is empty, malformed, or violates a split precondition."""


class DivergenceError(CamnetError):
    """Training or validation loss became NaN or infinite; the message names
    the epoch, and for a training loss also the batch."""


class ConfigError(CamnetError):
    """Unknown or malformed configuration key."""
