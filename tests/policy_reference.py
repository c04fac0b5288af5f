"""Reference point branch: the per-row forward and backward passes that
policy_forward/policy_backward replaced, kept as an oracle.

Every batch row carries its own (M, 6) copy of its cloud, the point
branch runs once per row, and the pb_* gradients are einsums over B*M
rows. The functions take the same ObsBatch and return the same outputs
as the policy module's, so a test can compare them row for row.
"""

import numpy as np

from fungrasp.policy import CLOUD_FEAT_DIM, LOG_STD_MAX, LOG_STD_MIN, param_views


def reference_forward(params, batch):
    """(mean, log_std, value, cache) with the point branch run per row."""
    cloud = batch.clouds[batch.cloud_index]                  # (B, M, 6)
    z1 = cloud @ params.pb_w1 + params.pb_b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.pb_w2 + params.pb_b2
    a2 = np.maximum(z2, 0.0)
    pool_arg = np.argmax(a2, axis=1)
    pooled = np.take_along_axis(a2, pool_arg[:, None, :], axis=1)[:, 0, :]
    feat = np.concatenate(
        [batch.s_r, batch.s_o, pooled, batch.p_afford_rel, batch.l_style, batch.obj_bb], axis=1
    )
    az1 = feat @ params.a_w1 + params.a_b1
    aa1 = np.maximum(az1, 0.0)
    az2 = aa1 @ params.a_w2 + params.a_b2
    aa2 = np.maximum(az2, 0.0)
    mean = aa2 @ params.mean_w + params.mean_b
    vz1 = feat @ params.v_w1 + params.v_b1
    va1 = np.maximum(vz1, 0.0)
    vz2 = va1 @ params.v_w2 + params.v_b2
    va2 = np.maximum(vz2, 0.0)
    value = (va2 @ params.v_w3 + params.v_b3)[:, 0]
    log_std = np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX)
    cache = dict(cloud=cloud, z1=z1, a1=a1, z2=z2, a2=a2, pool_arg=pool_arg, feat=feat,
                 az1=az1, aa1=aa1, az2=az2, aa2=aa2, vz1=vz1, va1=va1, vz2=vz2, va2=va2)
    return mean, log_std, value, cache


def reference_backward(params, cache, d_mean, d_value, d_log_std):
    """The gradient vector, in the layout of params.flat, with the pb_*
    gradients taken as einsums over every row's copy of its cloud."""
    c = cache
    flat = np.zeros_like(params.flat)
    g = param_views(flat, params.style_count, params.joint_count)
    g["mean_w"][...] = c["aa2"].T @ d_mean
    g["mean_b"][...] = d_mean.sum(axis=0)
    d_az2 = (d_mean @ params.mean_w.T) * (c["az2"] > 0.0)
    g["a_w2"][...] = c["aa1"].T @ d_az2
    g["a_b2"][...] = d_az2.sum(axis=0)
    d_az1 = (d_az2 @ params.a_w2.T) * (c["az1"] > 0.0)
    g["a_w1"][...] = c["feat"].T @ d_az1
    g["a_b1"][...] = d_az1.sum(axis=0)
    d_feat = d_az1 @ params.a_w1.T
    g["v_w3"][...] = c["va2"].T @ d_value[:, None]
    g["v_b3"][...] = d_value.sum()
    d_vz2 = d_value[:, None] * params.v_w3[:, 0][None, :] * (c["vz2"] > 0.0)
    g["v_w2"][...] = c["va1"].T @ d_vz2
    g["v_b2"][...] = d_vz2.sum(axis=0)
    d_vz1 = (d_vz2 @ params.v_w2.T) * (c["vz1"] > 0.0)
    g["v_w1"][...] = c["feat"].T @ d_vz1
    g["v_b1"][...] = d_vz1.sum(axis=0)
    d_feat = d_feat + d_vz1 @ params.v_w1.T
    d_pooled = d_feat[:, 14 : 14 + CLOUD_FEAT_DIM]
    d_a2 = np.zeros_like(c["a2"])
    np.put_along_axis(d_a2, c["pool_arg"][:, None, :], d_pooled[:, None, :], axis=1)
    d_z2 = d_a2 * (c["z2"] > 0.0)
    g["pb_w2"][...] = np.einsum("bmi,bmo->io", c["a1"], d_z2)
    g["pb_b2"][...] = d_z2.sum(axis=(0, 1))
    d_z1 = (d_z2 @ params.pb_w2.T) * (c["z1"] > 0.0)
    g["pb_w1"][...] = np.einsum("bmi,bmo->io", c["cloud"], d_z1)
    g["pb_b1"][...] = d_z1.sum(axis=(0, 1))
    inside = (params.log_std > LOG_STD_MIN) & (params.log_std < LOG_STD_MAX)
    g["log_std"][...] = d_log_std * inside
    return flat
