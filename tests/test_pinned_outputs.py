"""Pinned outputs: a refactor of the summation must leave every value byte-identical.

Each digest is the sha256 of the offsets, horizons, coefficients and
coefficient types of a series at several orders, or of the error raised;
the ``verify_all`` digests are those of its JSON payloads without timings,
at orders 400 and 1500, and the pair digest that of every catalog pair's
closed forms for m < 60.  The long-list digests pin Z2, Z3 and Z4 through
q^1000 and SIGMA's lacunarity report at 10^4, where the kernel's passes run
over long lists.
Regenerate the table with ``python tests/test_pinned_outputs.py`` only when
a change of output is intended, and say why in the change log.
"""

import hashlib
import json

import pytest

from qrds.bailey import bailey_step, limit_form, pair_catalog, pair_labels
from qrds.catalog import catalog_ids, eval_named
from qrds.verify import lacunarity_report, verify_all

SERIES_ORDERS = tuple(range(41)) + (97, 200, 333)
FORM_ORDERS = (0, 7, 60, 150)
PAIR_LEVELS = 60
FORMS = ("A1", "A1ALSO", "AQ", "AQALSO")
LONG_IDS = ("Z2", "Z3", "Z4")
LONG_ORDER = 1000
LACUNARITY_ORDER = 10000


def _canon(f) -> str:
    return repr((f.offset, f.order, [(type(c).__name__, c) for c in f.coeffs]))


def series_digest(sid: str, source=eval_named) -> str:
    h = hashlib.sha256()
    for order in SERIES_ORDERS:
        h.update(_canon(source(sid, order)).encode())
    return h.hexdigest()


def form_digest(label: str, form_id: str) -> str:
    h = hashlib.sha256()
    for order in FORM_ORDERS:
        try:
            lhs, rhs = limit_form(bailey_step(pair_catalog(label)), form_id, order)
            out = _canon(lhs) + _canon(rhs)
        except Exception as err:
            out = f"{type(err).__name__}: {err}"
        h.update(out.encode())
    return h.hexdigest()


def pairs_digest() -> str:
    """rel and beta_first of each pair, then per m: alpha_m's items summed
    into a sorted exponent -> coefficient list, and beta_m's closed-form fields."""
    h = hashlib.sha256()
    for label in pair_labels():
        pair = pair_catalog(label)
        h.update(repr((label, pair.rel, pair.beta_first)).encode())
        for m in range(PAIR_LEVELS):
            alpha: dict[int, int] = {}
            for e, c in pair.alpha_items(m):
                alpha[e] = alpha.get(e, 0) + c
            fields = (sorted(alpha.items()), pair.beta_exp(m), pair.beta_num(m), pair.beta_den(m))
            h.update(repr(fields).encode())
    return h.hexdigest()


def long_digest(sid: str) -> str:
    return hashlib.sha256(_canon(eval_named(sid, LONG_ORDER)).encode()).hexdigest()


def lacunarity_digest() -> str:
    report = lacunarity_report("SIGMA", LACUNARITY_ORDER)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def verify_all_digest(order: int) -> str:
    payloads = [report.to_payload() for report in verify_all(order)]
    for payload in payloads:
        payload.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


PINNED_VERIFY_ALL_400 = "4a6b96758bd2ebb36940e4dfbd1ad1c1bc5975d28b2aef4f3cc4b5aba1f438b7"

PINNED_VERIFY_ALL_1500 = "3015788254d385f1c153ecf195fb6311c7845e8b6e8650f7f854450ee7a2ebaf"

PINNED_PAIRS = "435c25db81ebcf3a504d6df9e8155f0336aa67b7a15a8d9cf3928eaf5826a2db"

PINNED_LACUNARITY = "1ddbb1117ab6ee9c4616b35c01394af5191b1999dd5c4f521c04a7164ae238ba"

PINNED_LONG = {
    "Z2": "5a618c5d3160981a4772896440a92952e3f05614791ba29abed022d7d4a028b9",
    "Z3": "bf2d379b37e5a6ef102533ea8f87e42007742ffdeef664d6f6a35d2f7324e9fe",
    "Z4": "1d2a1bdbef42c040b8a2a73df7f51b71e23ff8049cffc2cd3b9ddb6579c7fbd4",
}

PINNED_SERIES = {
    "SIGMA": "acbae69e9c57a6418c14d4aedbf959f19d07f91053460ae798b6119a95863b9d",
    "Z2": "2f011b8c7b09dcba99871697cc62f400bb0fd5ee6cd24ea592b64d5d6fd275b5",
    "Z3": "b21e4fde3d2a7ef144ee2d302898b68a125b388fc9e9bb2ca6ce323c76d0246a",
    "Z4": "30989cba098c483fa3e504cd3deda184642ffaa50eeab05fcad5d675faf13089",
    "Z5": "76bbc3f2146b935f8b8b480b1cf327f36ee0117dc9ecda8a724eae40ac799ffc",
    "L1": "401cfe4aa0acb9cdda43fbd4733da1c4f19cd0702244a7b7d9386f64f7e8a4bf",
    "L10": "2ed141b1eddb0c430c96424e2498862b4fdf0afeb961b53e6efce5da24efbfbf",
    "L11": "ce7788c1ad4ada5ae672045ea3b9e3a0bae7ee01f430d465afe8bc5cff8fb5f7",
    "L12": "e93a1ed3fc204c7154a00318fd45eed540ac456d6d76b33b62901d4e8ba890bb",
    "L2": "2ec2095fc16622ae0e979c203c7aad79d773db9febd82256b5030d32d0532079",
    "L3": "15a480cd41bc79fd1651af461ebcae16def52e8f91c3f982b1cbffdf89f19a2c",
    "L4": "98704399fa0628c56e5968092744fd8fe3ed9204f923b2b2ac79d11aade55121",
    "L5": "2035336ec4e844293f1f90bc7a9dc18868c0b83007019178779e6d579d89bf89",
    "L6": "4d5f234661c5c426fa5350b3d72c7ea9c95c7e7acafb75324ae837481bcd347a",
    "L7": "d761a989c08dd9c39fbc79c476d36d4b390b330f00387b52a5b3e8edc5c38023",
    "L8": "b95afdf75281c48e8b7157ded6b047e2c577a2483b12a329152fe5be488ffc12",
    "L9": "31b0d34fbc7ebd682a46889787545688b63e4926fe660792e8608218cd86484e",
}

PINNED_FORMS = {
    "BK1/A1": "9535e8a713a6e7c75cfe8f6b1f1aac419022c9713553ad260f5abf70777db87e",
    "BK1/A1ALSO": "1bd69bdcfd8d66c2bb65058c4e0c694471a27fdc9d81c89faf3fb6f92e99a6d5",
    "BK1/AQ": "7d42f50799d4d2b5c497269657ea7f9125357f35a009cc611f2279fc6b7788a2",
    "BK1/AQALSO": "7c914ddc616296b352939046c9de99f880fc33f83cb1eb1766571dbbda4e3d82",
    "BK2/A1": "fc7d6930b6c7055ead1460869c29812440fd2ffbf250fa20ea7ce104d01bbd5a",
    "BK2/A1ALSO": "537fe85eb8f4ffa65deed10c2356e56211d5928fbd2b45d1256b9c366a71cd46",
    "BK2/AQ": "7c41e3b8c2f10a3148d700240104bae18a28e95529262bf8c15e39cb02beb9bb",
    "BK2/AQALSO": "97ce44ab0da083124d603f8d757084a570bb02262b0db6ddf3faf2f2cee37080",
    "P1A/A1": "3f546074e86dd77a9347c6762d065d573214be3e215f738af1e34c7372168eaa",
    "P1A/A1ALSO": "0ab4d53fd923c13d111dc740c4ea4a5e8440379f5035ed01ef37825aef1b4a63",
    "P1A/AQ": "80b73c354b9076ef9190bc02ff488f45960c703fab1e1d6d1bf21b6c50594ed0",
    "P1A/AQALSO": "58da3a74aa9b1c1fefed0be4bdc8a9ce8a1840be8d76fe456e143bd094588892",
    "P1B/A1": "27d82301a966c98061220138d6566971f4b6a19afdcf0fc542cb13133e86ab25",
    "P1B/A1ALSO": "e328cf17d8828e36cf1cbf861e2fa952dcb7f7bdbc3fd2f5e9142f88aae9e027",
    "P1B/AQ": "fe5039c3fec8a5703f0dfb2be894d26e7ce783331920a007a5dddda04fe5e82c",
    "P1B/AQALSO": "04c60d8a9014916081d1b36093075d945c8b4ef0734b2b822298086d5c4f149f",
    "P2A/A1": "5fc7d283f975e6d87f8a5521869cafb69d143e50945172e4c177325c47e22d48",
    "P2A/A1ALSO": "456e874fd5c71766990d6933f4ce3806d203b5a701e05a4faba2f3081e37591c",
    "P2A/AQ": "32fda2640d7ef94666bf40024f57b8828c02530c47b2c4d5f094d0fb9f62c994",
    "P2A/AQALSO": "7a6ef9b1ee2d4afa3a3a08156cec70da4eb1649234f57a5974534f87e7676fd8",
    "P2B/A1": "c05dafb5554411f6caaecf2c1bb70f74e992ef0557fccfda9ec8905c81abef71",
    "P2B/A1ALSO": "1ba3a3e62107ca7427e85320e1a50a538f3cb96f2be5b60b16ba0c546bf713a8",
    "P2B/AQ": "b18c4827622ef2e97778570ba159f3dd5d55bf44e608d7b2ba57642798b021e2",
    "P2B/AQALSO": "464d74bc595d74830c9f56b89648254dbfa65c34037efa7a542c1b2ae32ed23a",
    "P3A/A1": "4edaa486f4bda4d1345033abc5249dcf2b9d5b3de2e968698bc2651dc5a12d1b",
    "P3A/A1ALSO": "450eba0daa90196a3966f16ada45a777ed00404ea5df7d021052e1efd4aaa5bb",
    "P3A/AQ": "b0b23be568b418b2cf29365d971d40769cd3bbfa397247865c203b9ca14d84d9",
    "P3A/AQALSO": "15988d7f5de3fa0e45687ba8a5c494b9bb76b58e625c801492066a54fe52f839",
    "P3B/A1": "76be6206caa98d218b0a0bb3e9e7c4b595411317731efa863dfb6a3c368c59df",
    "P3B/A1ALSO": "d22d3ca81370763424f6982255c26b742b4f2b47dd256bb2faeb25d1e6f48c91",
    "P3B/AQ": "2382f3e00457a30f19076eea481c1ae225f3916637045c670d8bfb8b0d7d7075",
    "P3B/AQALSO": "8196d3b241c7bbadbb7cd82e93b8ef01df50523413572a596269bdb42d492543",
}


@pytest.mark.parametrize("sid", catalog_ids())
def test_series_pinned(sid):
    assert series_digest(sid) == PINNED_SERIES[sid]
    # one sum at the top order, truncated: how verify_all serves its reports
    top = eval_named(sid, max(SERIES_ORDERS))
    assert series_digest(sid, lambda _, order: top.truncate(order)) == PINNED_SERIES[sid]


@pytest.mark.parametrize("label", pair_labels())
@pytest.mark.parametrize("form_id", FORMS)
def test_limit_form_pinned(label, form_id):
    assert form_digest(label, form_id) == PINNED_FORMS[f"{label}/{form_id}"]


def test_pairs_pinned():
    assert pairs_digest() == PINNED_PAIRS


@pytest.mark.parametrize("sid", LONG_IDS)
def test_long_series_pinned(sid):
    assert long_digest(sid) == PINNED_LONG[sid]


def test_lacunarity_pinned():
    assert lacunarity_digest() == PINNED_LACUNARITY


def test_verify_all_pinned():
    assert verify_all_digest(400) == PINNED_VERIFY_ALL_400


def test_verify_all_pinned_at_1500():
    assert verify_all_digest(1500) == PINNED_VERIFY_ALL_1500


if __name__ == "__main__":
    print(f'PINNED_VERIFY_ALL_400 = "{verify_all_digest(400)}"\n')
    print(f'PINNED_VERIFY_ALL_1500 = "{verify_all_digest(1500)}"\n')
    print(f'PINNED_PAIRS = "{pairs_digest()}"\n')
    print(f'PINNED_LACUNARITY = "{lacunarity_digest()}"\n')
    print("PINNED_LONG = {")
    for sid in LONG_IDS:
        print(f'    "{sid}": "{long_digest(sid)}",')
    print("}\n")
    print("PINNED_SERIES = {")
    for sid in catalog_ids():
        print(f'    "{sid}": "{series_digest(sid)}",')
    print("}\n\nPINNED_FORMS = {")
    for label in pair_labels():
        for form_id in FORMS:
            print(f'    "{label}/{form_id}": "{form_digest(label, form_id)}",')
    print("}")
