"""Out-of-place reference expressions for the MSEs, the SSIM map, the
BT.709 colour conversions and the frame/tensor conversions: the references
for ``metrics.ws_mse``, ``metrics.mse``, ``metrics.ssim_map``,
``media.rgb_to_yuv420``, ``media.yuv420_to_rgb``,
``harness.frame_to_tensor`` and ``harness.tensor_to_frame``, which run the
same steps in place or in row blocks and must agree bit for bit.
"""
import numpy as np
from scipy.ndimage import correlate1d

from odsr import media, metrics
from odsr.engine.tensor import Tensor

_KR, _KG, _KB = 0.2126, 0.7152, 0.0722
_R = metrics._RADIUS


def ws_mse(ref, test) -> float:
    r = np.asarray(ref).astype(np.float64)
    t = np.asarray(test).astype(np.float64)
    w = metrics.WeightMap.for_frame(*r.shape).as_array()
    diff = r - t
    return float((w * diff * diff).sum() / w.sum())


def mse(ref, test) -> float:
    r = np.asarray(ref).astype(np.float64)
    t = np.asarray(test).astype(np.float64)
    return float(np.mean((r - t) ** 2))


def ssim_map(ref, test, peak: float = 255.0) -> np.ndarray:
    r = np.asarray(ref, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    taps = metrics._gaussian_taps()

    def smooth(img):
        tmp = correlate1d(img, taps, axis=0, mode="nearest")
        return correlate1d(tmp, taps, axis=1, mode="nearest")

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu1 = smooth(r)
    mu2 = smooth(t)
    mu1_sq = mu1 * mu1
    mu2_sq = mu2 * mu2
    mu12 = mu1 * mu2
    s1 = smooth(r * r) - mu1_sq
    s2 = smooth(t * t) - mu2_sq
    s12 = smooth(r * t) - mu12
    full = ((2 * mu12 + c1) * (2 * s12 + c2)) / \
        ((mu1_sq + mu2_sq + c1) * (s1 + s2 + c2))
    return full[_R:-_R, _R:-_R]


def _round_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


def rgb_to_yuv420(rgb: np.ndarray) -> media.FrameBuffer:
    arr = np.asarray(rgb).astype(np.float64)
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    lum = _KR * r + _KG * g + _KB * b
    pb = (b - lum) / (2.0 * (1.0 - _KB))
    pr = (r - lum) / (2.0 * (1.0 - _KR))
    y = 16.0 + 219.0 * lum / 255.0
    u = 128.0 + 224.0 * pb / 255.0
    v = 128.0 + 224.0 * pr / 255.0

    def sub(p):
        return (p[0::2, 0::2] + p[0::2, 1::2]
                + p[1::2, 0::2] + p[1::2, 1::2]) / 4.0

    return media.FrameBuffer.from_yuv(_round_u8(y), _round_u8(sub(u)),
                                      _round_u8(sub(v)))


def yuv420_to_rgb(frame: media.FrameBuffer) -> media.FrameBuffer:
    y, u, v = frame.yuv_planes()
    yf = (y.astype(np.float64) - 16.0) * (255.0 / 219.0)
    uf = (u.astype(np.float64) - 128.0) * (255.0 / 224.0)
    vf = (v.astype(np.float64) - 128.0) * (255.0 / 224.0)
    uf = uf.repeat(2, axis=0).repeat(2, axis=1)
    vf = vf.repeat(2, axis=0).repeat(2, axis=1)
    r = yf + 2.0 * (1.0 - _KR) * vf
    b = yf + 2.0 * (1.0 - _KB) * uf
    g = (yf - _KR * r - _KB * b) / _KG
    return media.FrameBuffer.from_rgb(np.stack(
        [_round_u8(r), _round_u8(g), _round_u8(b)], axis=-1))


def frame_to_tensor(frame: media.FrameBuffer) -> Tensor:
    if frame.layout == "yuv420":
        frame = yuv420_to_rgb(frame)
    if frame.layout == "rgb8":
        arr = frame.rgb()
    else:
        arr = np.repeat(frame.y()[:, :, None], 3, axis=2)
    chw = arr.astype(np.float32).transpose(2, 0, 1) / np.float32(255.0)
    return Tensor(chw[None])


def tensor_to_frame(t: Tensor, layout: str) -> media.FrameBuffer:
    arr = t.data[0].transpose(1, 2, 0)
    if layout == "rgb8":
        return media.FrameBuffer.from_rgb(_round_u8(arr * 255.0))
    if layout == "yuv420":
        return rgb_to_yuv420(_round_u8(arr * 255.0))
    return media.FrameBuffer.from_y(_round_u8(arr.mean(axis=2) * 255.0))
