"""SR network specs, builders, classical baselines, and checkpoints."""
from .blocks import (
    Act, Ccm, Conv, ConvTranspose, CspBlock, DownscaleHead, Ffc, Grn,
    ParallelConcat, ParamSpec, PixelShuffle, RepeatChannels, Residual, Safm,
    Shape, UpsampleAddSkip, iter_descriptors,
)
from .builders import (
    BUILDERS, build, build_athena, build_cspsr, build_ffcir, build_fsrcnn,
    build_vacv,
)
from .checkpoint import dumps_params, load_checkpoint, loads_params, save_checkpoint
from .networks import Network, NetworkSpec, count_flops, count_params, init_params, param_specs
from .resample import (
    bicubic_downscale, bicubic_upscale, cubic_kernel, lanczos_kernel,
    resize_image, resize_matrix, resize_plane,
)
