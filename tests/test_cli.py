import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import optimin
from optimin import ResourceLimitError
from optimin.cli import SWEEP_MAX_POINTS, _sweep_values, main
from optimin.fileio import dump_marriage
from optimin.matching import MarriageProblem


# sha256 of the bytes each command writes, recorded before the generators
# moved from nested Fraction tensors to int columns: the files, reports and
# help text must not change.
GEN_PINS = {
    "figure1": "290b19c62e60dc70ad52f86a8f3f5830c8f13acbbac454723f067d7f13e3b576",
    "motivating": "f0a2eb46df916891c43897101ad9619cdfeba9055eee3df20beb083553713890",
    "battle_of_sexes": "ffdb4d98504918f0f1b856b13ea66bc0b0d006622d87546be95ebf4500eb821b",
    "prisoners_dilemma": "10a1ad64392f9681edc4b4575fc3635aa10a2ba8580bc430235a0436f8345a9d",
    "coop_empty_core": "42d5bc1423452fee3a2bf73bda598f208e8c9e3b65ff2914e2a0a811cc4e5673",
    "coop_120": "15eaf8cafd09a5c4d87d39af18bd9fb8353b4bf4d68f316edb5b15409b3b5a0d",
    "travelers": "9598854aaca62e2a46e80b19868b1912629561abdaa1d629d46b97a83ad347a4",
    "centipede": "a3e4db9fb7ec4c50c833c50a5b630c9138ab47ac532a2e5582b03a91d0e498f0",
    "public_goods": "3367260e730240f0cd978583ee0b5ede98d78778e45d1f5de018ea985af6c84c",
    "travelers --r 5/2 --low 3 --high 9": "6b282511186f0bae681263b7057f2cf3883b959e5b3f7ca8cba7fe4daada7402",
    "centipede --nodes 7 --variant constant":
        "e936bf4b6d679c9b191ffbe8820b28ee1a5222041f3ee26cc60639093a04d387",
    "public_goods --n 3 --endowment 7/2 --mpcr 2/3 --levels 0,1/3,3":
        "2ba74e7f8af9f7fb606f014d46554597d562ebcb68c74a10fa971b4a86eaa8a6",
    "prisoners_dilemma --t 7/2 --reward 3 --punishment 1/2 --sucker 0":
        "97ecda1d5fc7ab6946bb138a9e8a00b6e2c51480d399f00b482fb87bfcb9ae38",
}
SWEEP_PINS = {
    "--family travelers --param r --from 2 --to 4 --step 1/2 --low 3 --high 12":
        "f411f59372b66dd7db7caed2b73625c6f2e0cd1fcaeae8b007d7a1a3032fb6d8",
    "--family centipede --param nodes --from 1 --to 6":
        "ca09364b36f81b384f7ad5e10ad742be93b8198dc9683b25b82921b3eb6ac8c6",
    "--family centipede --param nodes --from 1 --to 4 --variant constant":
        "94568fbdc902a67bfa6a418a8e9181a9cc6aed85d3c018f4cf1ef006681261f0",
    "--family public_goods --param mpcr --from 1/2 --to 3/2 --step 1/4 --n 3 --endowment 7/2 --levels 0,1/3,3":
        "1d12a6bc3c00ad3dbaaba48c8ff1d78cdb3ec5fa1cd1b21e869cb97144ba9218",
}
HELP_PINS = {
    "gen": "d4e0f71045793f392b55f92598caf0ae15bddbaf397d7bbe12d892c590528e92",
    "sweep": "db16d3ce2b1039560d9bf377947e3a588c3fbb61b46493540ae6ddda98b3ed8b",
}

# sha256 of `optimin --game <g> --mixed-grid k` in table and json format,
# recorded before the grid's deviation values came from one lower hull per
# grid point; the seeded files are written by `write_seeded_game`.
MIXED_GRID_PINS = {
    ("figure1", 1): (
        "28e194a2d8ac0bfd19480755ce50d80d8c384e89397bab82168f45aeea105524",
        "2d8325e440a9c211368109db84c87f51835a0324253a950e17e30d8700c46f26",
    ),
    ("figure1", 2): (
        "f456c49f3c5882c471e6977f95fb6f6735c7961ed60b6aa1fbcc15369924b4df",
        "7e595fa725aa6b525d64e5e5df66011a93a9328e0f19845a3590202d50bb6369",
    ),
    ("figure1", 3): (
        "7ce86165d2b867d7d1338b2321a1858e03f52f488fd69410aabec60961455f52",
        "8c35dd3e78f72d3472f04102dcaaf221cb1eb85878dfc3b6c51d37f3c5b25af4",
    ),
    ("figure1", 4): (
        "eeec2d8e6ede427af933a260c4b2403e0a28581bea58448066374c72da27e430",
        "b9edf19b287d87b2fa01fe440b48ecd3cabc80e09073f154679b367adf5f1ee5",
    ),
    ("figure1", 5): (
        "4a88fe9371c316a7ae09167a55eb6e951998e30722e482d62c49ebf6a329ccd4",
        "355af27592064f435be2360331cbf5d970d1b4d70e93b9af94144034e39dccd9",
    ),
    ("figure1", 6): (
        "a15f84316a3e3533d849937c4954c207dce93c15c0b41100cb1d5ef8defdd55d",
        "ca4708a583be812764e33484d5ea8030dde169a71e066bf7d204d7b602229f39",
    ),
    ("motivating", 1): (
        "1588b771b218ef6f9a12716297b9c9b0962f4797b85efebbf1f08182d309e39a",
        "6e6d93bc6ae4246ededc4a995db738d30d9407c4d1f4890d40c97e1376cb5f05",
    ),
    ("motivating", 2): (
        "2dceadd9d30d626841161010f9501cfd73f1a9c8223188e56ea4767157691765",
        "a6f00b822a2093c6177608ec91f4ca545b080c6cc1ada1906e3d8eb202cbd5d9",
    ),
    ("motivating", 3): (
        "796ad9e7e2d9ec15171dff6a36242cb3e5b908acaa861c4ac6af238f7656447e",
        "17190d42e35346fd7ae76e34c3f2b5de4b1bd621277ade8279f0cfac135943fc",
    ),
    ("motivating", 4): (
        "756d525a1c38e1391856d57f016eec20534250179a4cfd5b089c06f8c662bcb1",
        "ab330a38b64b95bf019167a1e342c4d2a6f8fcf001b9f9a72bf515d6cfc60a8c",
    ),
    ("motivating", 5): (
        "06532d57fc8b9e98816684f7a1bbd8cd68ae8524d0519e585c169c9eb0a1d3eb",
        "de8e6569b8b616612bee7f5a89a6b0ed32829764d47cb52de8c720313add6b1c",
    ),
    ("motivating", 6): (
        "ba6119b308da24a226ff39f073cf1b0d6acc387197ca4c86ce0bb7361d0b7b65",
        "4b5dc136dcc4af51967ba94270ed09bde72278aa029823a6501fab7a114364b5",
    ),
    ("battle_of_sexes", 1): (
        "8ceb3a51b25074cfde820cbb76596232483bced79be554912a66209854314cc8",
        "d8169021ab61d6d8decec35d453f7122bb3aaa1a6825fb3b2887d6867c53b697",
    ),
    ("battle_of_sexes", 2): (
        "33fd656aa3429ef16e73e346786d62a0fad2e1142ac556eeea1e384030557f77",
        "af69b63b339861abcd9b6d358b091129764e41021d6d779c9ad06b5564b8d601",
    ),
    ("battle_of_sexes", 3): (
        "f9288da539af611b77d73512bc215686ca6a3f739ed05284cf814d99a425132e",
        "1fdc370a096f8baee041f8cab08d11b936e4fd64e99a747cae3d3a5513e257d9",
    ),
    ("battle_of_sexes", 4): (
        "cc0ee18e982805299a36927f5dab9a5e30c070bfe5154782e510b63c157debe2",
        "41fcefdd49a1ad550a8b7af5a510c736cb927cab3c7ce06621e6b3dc8b2437e7",
    ),
    ("battle_of_sexes", 5): (
        "83db0acf52b2ec2e38b234455a28088f7463aa0611747a84bdb4ecca29a2dfaf",
        "140ecf72a1b081af273502e8611fb13c1433cfb364316d1ac6c055dfeeaf38d0",
    ),
    ("battle_of_sexes", 6): (
        "0944c0939e1a8f9a7325c331f99dfe07876ed03fbbcca8cb4a0584ab9f1f57bc",
        "69790bce4131e071b960e3e1235f6e158875a89b56002f1de25610f196edd98b",
    ),
    ("prisoners_dilemma", 1): (
        "7ae8ed05aa64e8e2ba5d2a7d8bcea7bc8952b1eab18ac41abd393dee7dd29846",
        "77f63a1ad31c365d62891e265307e91ceae849f72c8d00d44dd4c02d9bb1b6db",
    ),
    ("prisoners_dilemma", 2): (
        "d4669eed63deaa24c58857aae86a2cdc974666eaac8b3e1fb36634c4623674dd",
        "84cf4f9068ac21f0589196e199f8bbec59d46828e6c4e0b6c953a4ab66f829eb",
    ),
    ("prisoners_dilemma", 3): (
        "51517b553473658c5052578224ff77b47bb1fbd23fa7394196ace886a5ce33be",
        "5b624f9296e972e7eb90f80acf488b92ad4e5a063f3f970ce8925c52809ae1fb",
    ),
    ("prisoners_dilemma", 4): (
        "52a792404eb5e5da6f95162cda485d1d533cf780affad2a14db9bf53368dad7b",
        "6d8a4ee6c1c8deb7946a9b16abc6b2b356303957c6faea7599da1602df7027fe",
    ),
    ("prisoners_dilemma", 5): (
        "be756109865ed7811672bf93079d2ac546e461c7355ece5562a19655e00c2495",
        "ea637d4539324c310be9a487e440bfe5784e18998de3a158308f4a26c0baeae0",
    ),
    ("prisoners_dilemma", 6): (
        "9500164f49e1d8ec5dbce184605914ad6eb0cb7e863a8a7a13bff42a5d098b09",
        "42e7ee1295322735b02f3d6a79374d21a3eb583995d69022e43f226799ad921a",
    ),
    ("3x3", 1): (
        "c1dfa5a0bf1770d84508b5674c0073eff3e21d182541977d9de9e0a5d513b78d",
        "f3a285b9e782c2ebdc3f2cc4c5e17d9d6246cc072716c9741ddf9b085507e349",
    ),
    ("3x3", 2): (
        "ad889b51227a26cc4cfef6db6a6e6998af880faeea69d71a1d40cb49170629aa",
        "ad574e9db2cedfee91a043dd58ec0fc77deaf77f1d6fe67caaa51132349751b9",
    ),
    ("3x3", 3): (
        "388f471a08d1a1535fbfa26344956dcfb4e278473c18e5065ef7f8ee21da2ea1",
        "4c82d0e201940b4c8074077e60f4a9837a3a69237672eb77cdb6d281f7c5fa90",
    ),
    ("3x3", 4): (
        "5a066db3688a084f00ca33b39c79ccb3b47ef4781b07a923566c19c1a95a06f9",
        "28339e4a25cb234218c1f7a555ecb1c46baf0fef8bf2218303df3bd894a19bf1",
    ),
    ("3x3", 5): (
        "82f4491adec0838a1cacc0137c1e55f7f1c052a1759949cd81bba54f2f373281",
        "cee42b3d8e4389ff348901a06ff5bdc8c9f83a4fbed6ca3b9e806f33064b7adf",
    ),
    ("3x3", 6): (
        "9d5f2399e6a0cb3e43279e3e4e0fc89c6516db8c73d7c370ceda7667acb32a04",
        "34f4579e42a9f20209456382638a6682f69bc93cbdbebf994249345b8ca4a7e9",
    ),
    ("4x2", 1): (
        "08a09d923cd844d07008091ac208bae79132828aee9f7024a93ce0b4586e9e6c",
        "6bf7e90987cb8f7dc1fb7f915c70ffa25f04bf8d0b9f103c7043f929a621cb9a",
    ),
    ("4x2", 2): (
        "da6f8bdedb2834a4dfabdc7295eb712589861c1af30797bb7540471ad1148ba3",
        "d0f3e8fd47483d5c058f777a727533898ea092c04e0d0061c5f5dc32b93f2ba7",
    ),
    ("4x2", 3): (
        "89f1f72c1f6135ab18bce1fe0ddc4d01f097a1951ea4074d498e81b87f4c825f",
        "60a973d7f421129b1c12a86963b724d72e760535f634f26c94045207d7cf7b46",
    ),
    ("4x2", 4): (
        "8185aa7551117fabee5905da8b147e4217479f53947fd4d9f8e76496b4724bdd",
        "e597f1d7e5e199eabed17edb920c96a0cae87df8c5910eb3bdef2f4e3825fd18",
    ),
    ("4x2", 5): (
        "9299cc36c6101d63a2b4316af5d2e22e8b9196cb6093e4f58f1bbdf15fb95816",
        "dbc5cf1da2006bb22a9fc43d491cdfe9f0f3c3eca63f0dd88c57320a13663aef",
    ),
    ("4x2", 6): (
        "2edfa9f656910dcf679a3b36d70cfaa56fe1216975fd308fa7482a18f7918913",
        "532aa3cf44c71fe553bcaa5a568e94c1020b1f34418de38ba03cb2f222d60f51",
    ),
    ("1x5", 1): (
        "cd46686fe2f24c95a8a9dc3813bdc413de6ad7ca46e68dbcd0405dcedb1386d2",
        "ba0c39d3c7246499e8267c4a16243e3c43ffd9ffc2d328dd9b4f512bdd8eb080",
    ),
    ("1x5", 2): (
        "264aeb6e6b97c9e64818c519dab1ca584dc95f079844f10962fa7485c37aa475",
        "cff79ed94d2df9ec67deb2a708a42e337ffe22c99328f75efb0d0d3aa7be3e63",
    ),
    ("1x5", 3): (
        "7b560093b8088b4ad66ab00e16031183cf91f6d08505103c7dc363c822ea2500",
        "8d7d015cfeba3c40cd48d1a3383006e9416179d60a1924e50633899e8b75648a",
    ),
    ("1x5", 4): (
        "ae845ad9ef2fe86b8c756d62732deb5c5f407b87de3afb90e340e5f0de983eb4",
        "d4a3b4da83032f3202cbf8657a1a260983e8906705c565b4aee426c36ae53534",
    ),
    ("1x5", 5): (
        "4d2c56020a99fa319e0648376fa227736fe61e97ad9532216d80b19a99ada014",
        "eed88b45eaa91891439cbc5e0a6542d0c5e8c3edadfe68918878da6c32fa384e",
    ),
    ("1x5", 6): (
        "c93dee1634f918b70191a06d0fe69850d1743ea06c81504f8e6c8be8d2a0b08a",
        "e9c570573ff021768158cd744dd9bb881ceb22f0e4274a74153a4cd644d1b068",
    ),
}
SEEDED_GAMES = {"3x3": ((3, 3), 1), "4x2": ((4, 2), 2), "1x5": ((1, 5), 3)}

# sha256 of each report command's stdout in table and json format, recorded
# before `_emit` became the one place that encodes and writes a report.  A
# "{name}" argument is the file `write_report_inputs` writes under that name.
REPORT_PINS = {
    "optimin --game {nf} --pure": (
        "b9ea7221fa3c0d5a758fbc1b311fa3284f2d1367536e3652d85be6e1e0c9ee29",
        "97f3b8489d3b0671fe87ecffd5cc9f8d8d98088f3cf4c682c342eec8f81f4480",
    ),
    "optimin --game {nf} --mixed-grid 2": (
        "e43c6749419b2126224717519b7bc5f4c855a24263398216fc1da0cecb8927a0",
        "632f8eb98ca9381fef5bbefd38fa207cb40cb994b14528b7355fd4fdb41fe82e",
    ),
    "value --game {nf}": (
        "a9b3ac48672f144638a52ed80dc396623c667ecf3cd019ee57b3f3efc6e59cd3",
        "e5aeed947ceb1ae4ab0411b4fb0ebb76c5326474dd31287bcb0d17fe8d70c7cc",
    ),
    "value --game {nf} --profile r1,c2": (
        "25f164ff336dcf2c4c58d1e46fb77a831f2230531bb95f5cbe07c2defe135f00",
        "a1032f85ff5f02386c04bf1487dbbdf5b12e94381581330ed4634e83094225e3",
    ),
    "nash --game {nf}": (
        "44cf8a0227d60192dbc6889a56df71a4890fae37f224502e42f714a4308976bb",
        "87d1968714f24696fdc6b1b2eee2c8cfeb0ab7e087e3c2fb4204d1e106dcdfb0",
    ),
    "maximin --game {nf}": (
        "70b613696de8a73b1dec5999011ce29547b8b2b0f666748017e3aa113a65f10f",
        "63aec457058e84042eb1cdc691f8abec7073df632a3d6ae1f6f75b5a80ba3fcd",
    ),
    "zerosum solve --game {zs}": (
        "01ec6a967feb5b4723c8c151e5a837fe63288de6f836a31d8f2500841766f061",
        "aad41a65c94884705e74923e449401d2ef63deb5b2e160c7b0af3ea65eb0e184",
    ),
    "zerosum solve --game bulmer": (
        "83bbc50b1e2b81109556505442ad6d8987cf81a4cfeb932f063dd201f66f88c6",
        "fe4c4c0b9dfb7c2d568bb3bf77ed42ff919e30a080cf8777564be92c7a63deb7",
    ),
    "coop core --game coop_empty_core": (
        "2fb92bec80997bca03b509f48b02949def7e68bcae815533a4ca33be87b864a6",
        "29d95910aab8ed1e684d3976f3f52c2da947e5ae8959e0ee1d3e64064c10c779",
    ),
    "coop core --game {tu}": (
        "5199b2f3d11a9eef6521e3fc6d7ac3c9654408ccb2ced855008c8285f2558201",
        "a5d979524d6fc354bee7d2150dc1f02900d60e769d689da628ecad364408dd28",
    ),
    "coop shapley --game {tu}": (
        "540c5ecd867fbb0f604002f1d476074ee1480120a02d6e9754fe390596015036",
        "b81b848c5af194f68eb605ecc13772a8726c6dabba8fd60ca368515d26586740",
    ),
    "coop nucleolus --game {tu}": (
        "80cf917fb775651a0a49f349f0c94e89e1da1bee150453e939f09f07607e127b",
        "da3e8169a38900ebb6367ae29bc0606fedc8388eac399027322af88554227e56",
    ),
    "coop optimin --game {tu} --step 1/2": (
        "8e18c1dcff5fd0b51c8e775f12ee50ff3d235cea44dfd43e21b0ba1fa9f15aab",
        "4d0b4bbdb86e733aaec222890b78ea33c2fe22a1e3aebfa645f1e8b5e271118e",
    ),
    "coop optimin --game coop_120 --step 10 --floor 0": (
        "b3be382eab1c6158200b1b3e4dc40096a24e35e068d2e484e1c39be3b940f5db",
        "b23c0dfc582b00e244a5d7312339304e40c8dd56ae2244b522ea1f9f8b827349",
    ),
    "coop value --game {tu} --alloc 10,15/2,31/2": (
        "575deabedc5e4968b08c04aaa363ed832c6eae1fce7c1fba217f1d4b4d3e4ae6",
        "cc7c0ffc133befdedcfa41ff479710ad2e79054dbe15e578baadcf89dc321daa",
    ),
    "match da --game {mp}": (
        "badc03f5e06d7bf2f69e0651a5db9293f351f5ab200e84da176750d52009a7bd",
        "e4e6c63fa3aa22b227c830011d30347d3e43d1daef8bc1c218b1400fffb84df8",
    ),
    "match da --game {mp} --propose B": (
        "4424f02ed622a5401d04859a8acfa4332d170559e09d2b043029b8433fcc252f",
        "d1b04bd1372d9eb0a486dd52d80c9dd27f5db48453b8852c1bc362854b870953",
    ),
    "match stable --game {mp} --matching a1=b2,a2=b3,a3=b1": (
        "4ccc745007e96624780ae7145f96e06034c43c91293eb277d0e1521db1ab0a4f",
        "4a968ef1aea7c45bca26ccf940bd33aad1b0c22668c620bc13534ae47454c214",
    ),
    "match stable --game {mp} --matching a1=b1,a2=b2,a3=b3": (
        "162d63f2bb99b0f9d408ff096b70173e194665bbe57c7458aeb52911c1d051f9",
        "eda8a86a735e154d5e898ace5e8a8987440553dfb0d0d2ec29a75b2481a430b9",
    ),
    "match stable --game {mp} --matching a1=b3,a2=b1,a3=b2": (
        "3f51e1cb1f025a048ed071184ccc626166e6687390777f3e97f5f1af54ceef36",
        "c930a4f943bd356140efd79178233f98e0795cafe15af4deee5a62f56ada8805",
    ),
    "match optimin --game {mp}": (
        "cc06b0775ed131a9aabae8afdb8e4c6f95decf3f6345c387b866237ec7a871be",
        "28e2879558aa3ca0b0d3901e8f601966bcf550b7445e63bd3e9af217aaef0c67",
    ),
    "match value --game {mp} --matching a1=b3,a2=b1": (
        "0216fae538f72dcbbf5bbc6c9b922b67bd912746c86493cad4bec87ab9a21d1e",
        "0eb467fb60c48763a45306fc399537559cda46dd759485862b14fb6924dc2db6",
    ),
    "match deviations --game {mp} --matching a1=b3,a2=b1": (
        "67c496f0506436733afdfca51333d63789ece8624d965b5f21697d2e30565a57",
        "b5cd4e23a93399627acd579185e3ae847cae6c67cd6f3d622fb816b6931e0e28",
    ),
    "decide solve --game {dmoc}": (
        "9022915e06e88e092210c0159507e1bfdb440cdd4195ed29dca4638bfe5a5c17",
        "83a98a1a5e133c279e1871b864f0aa497163680b03bd48e7830f23f90bbb198d",
    ),
    "decide check --game {dm}": (
        "a82a6964f2d1dc252ba6f232da10018aea1084d1ce2c89e6b0cc089c66f05436",
        "7f51376bba855043cfd3c57a8fb7208ae632b61475fd9ffc25fdbbf2b2741feb",
    ),
    "decide solve --game {ant}": (
        "8b026638b5304b4b401b114b6e05ae7068602b141a20fc9a60e71aac3fff05f6",
        "58489e67d104c1a00e5e49f51528005ae7976bded69dcd688dd4250c63391db5",
    ),
    "decide check --game {ant}": (
        "1b0551de5e2714f5d11bb160c58d2f7557f713487b81478478eee72edeb4f82f",
        "05c6166a0c807bc5163254154ff03b57b8c49b2b3fe658b79057873883a02fe8",
    ),
    "sweep --family travelers --param r --from 2 --to 4 --step 1/2 --low 3 --high 12": (
        "f46c9432e6bcfd5d1cc12fe127b1eaea76f4f8729635b91e264e99ae2c28919c",
        "f411f59372b66dd7db7caed2b73625c6f2e0cd1fcaeae8b007d7a1a3032fb6d8",
    ),
    "sweep --family public_goods --param mpcr --from 1/2 --to 3/2 --step 1/4 --n 3 --endowment 7/2 --levels 0,1/3,3": (
        "72ed74509d73274a71b35ef37c1758b1b53d82da61fffd1286fd4ac492bea2ec",
        "1d12a6bc3c00ad3dbaaba48c8ff1d78cdb3ec5fa1cd1b21e869cb97144ba9218",
    ),
}
# sha256 of the file `sweep --out` writes, in table and json format, recorded
# with `REPORT_PINS`.
SWEEP_OUT_PINS = {
    "--family travelers --param r --from 2 --to 4 --step 1/2 --low 3 --high 12": (
        "f46c9432e6bcfd5d1cc12fe127b1eaea76f4f8729635b91e264e99ae2c28919c",
        "f411f59372b66dd7db7caed2b73625c6f2e0cd1fcaeae8b007d7a1a3032fb6d8",
    ),
    "--family centipede --param nodes --from 1 --to 4 --variant constant": (
        "f204c80303be9f25a1db54f5bf77b2e1ad66e31f1d80152658c1dc584dc98fe8",
        "94568fbdc902a67bfa6a418a8e9181a9cc6aed85d3c018f4cf1ef006681261f0",
    ),
}


def write_seeded_game(path, shape, seed, zero_sum=False):
    """A two-player game file of `shape` whose payoffs are fractions drawn from `seed`."""
    rng = random.Random(seed)

    def cell():
        if zero_sum:
            x = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
            return [str(x), str(-x)]
        return [f"{rng.randint(-9, 9)}/{rng.choice((1, 2, 3, 4, 6))}" for _ in range(2)]

    doc = {
        "players": ["row", "column"],
        "strategies": [[f"r{a}" for a in range(shape[0])], [f"c{b}" for b in range(shape[1])]],
        "payoffs": [[cell() for _ in range(shape[1])] for _ in range(shape[0])],
    }
    path.write_text(json.dumps(doc))


def write_report_inputs(directory) -> dict:
    """The input files `REPORT_PINS` names, written under `directory`."""
    files = {name: directory / f"{name}.json" for name in ("nf", "zs", "tu", "mp", "dm", "dmoc", "ant")}
    write_seeded_game(files["nf"], (3, 4), 5)
    write_seeded_game(files["zs"], (3, 2), 6, zero_sum=True)
    rng = random.Random(7)
    worth = {key: f"{rng.randint(0, 9)}/{rng.choice((1, 2, 3))}" for key in ("1", "2", "3")}
    worth.update({key: rng.randint(10, 20) for key in ("1,2", "1,3", "2,3")})
    worth["1,2,3"] = f"{rng.randint(60, 70)}/2"
    files["tu"].write_text(json.dumps({"n": 3, "worth": worth}))
    prefs = {
        "a1": ["b2", "b1", "b3", "a1"],
        "a2": ["b1", "b3", "a2", "b2"],
        "a3": ["b1", "b2", "b3", "a3"],
        "b1": ["a1", "a3", "a2", "b1"],
        "b2": ["a3", "a1", "b2", "a2"],
        "b3": ["a2", "a1", "a3", "b3"],
    }
    files["mp"].write_text(json.dumps({"A": ["a1", "a2", "a3"], "B": ["b1", "b2", "b3"], "prefs": prefs}))
    decision = {
        "acts": ["act1", "act2", "act3"],
        "states": ["s1", "s2", "s3"],
        "utility": {
            "act1": {"s1": 4, "s2": "-1/2", "s3": 1},
            "act2": {"s1": 1, "s2": 1, "s3": "3/2"},
            "act3": {"s1": "7/3", "s2": 0, "s3": 2},
        },
    }
    files["dm"].write_text(json.dumps(decision))
    oc = {"act1,s1": ["s1", "s3"], "*": ["s1", "s2", "s3"]}
    files["dmoc"].write_text(json.dumps({**decision, "oc_states": oc}))
    antagonist = {"oc_states": {"*": ["s1", "s3"]}, "oc_acts": {"act2,s2": ["act2"]}, "antagonist": True}
    files["ant"].write_text(json.dumps({**decision, **antagonist}))
    return {name: str(path) for name, path in files.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptiminCommand:
    def test_figure1_pure(self, capsys):
        code, out, _ = run(capsys, "optimin", "--game", "figure1", "--pure")
        assert code == 0
        assert "mode: pure" in out
        assert "(Top, Left)" in out
        assert "value (100, 100)" in out

    def test_figure1_json(self, capsys):
        code, out, _ = run(capsys, "optimin", "--game", "figure1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimin"] == [{"profile": ["Top", "Left"], "value": [100, 100]}]

    def test_mixed_grid_mode_labelled(self, capsys):
        code, out, _ = run(
            capsys, "optimin", "--game", "prisoners_dilemma", "--mixed-grid", "1"
        )
        assert code == 0
        assert "grid-approximate" in out

    def test_mode_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimin", "--game", "figure1", "--pure", "--mixed-grid", "2"])
        assert exc.value.code == 2


class TestValueCommand:
    def test_single_profile_with_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "value", "--game", "figure1", "--profile", "Bottom,Center"
        )
        assert code == 0
        assert "value: (5, 0)" in out
        assert "worst case for row" in out

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "value", "--game", "motivating")
        assert code == 0
        assert "(U, L)  (2, 2)" in out

    def test_empty_profile_is_refused(self, capsys):
        # An empty profile is one empty label, not a request for the whole table.
        code, out, err = run(capsys, "value", "--game", "figure1", "--profile", "")
        assert (code, out, err) == (1, "", "error: expected 2 strategy labels, got 1\n")


class TestSolverCommands:
    def test_nash(self, capsys):
        code, out, _ = run(capsys, "nash", "--game", "figure1")
        assert code == 0
        assert "(Bottom, Right)" in out

    def test_maximin(self, capsys):
        code, out, _ = run(capsys, "maximin", "--game", "motivating")
        assert code == 0
        assert "row: security 1" in out

    def test_zerosum_solve_bulmer(self, capsys):
        code, out, _ = run(capsys, "zerosum", "solve", "--game", "bulmer")
        assert code == 0
        assert "mixture (1/5 (~0.200), 0, 0, 4/5 (~0.800))" in out
        assert "game value: 3/5" in out

    def test_zerosum_solve_bulmer_json_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "zerosum", "solve", "--game", "bulmer", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["value"] == "3/5"
        assert doc["players"][0]["mixture"] == ["1/5", 0, 0, "4/5"]
        assert doc["players"][1]["mixture"] == ["2/5", "3/5"]


class TestCoopCommands:
    def test_core_empty(self, capsys):
        code, out, _ = run(capsys, "coop", "core", "--game", "coop_empty_core")
        assert code == 0
        assert "core: empty (LP infeasible)" in out

    def test_optimin_grid(self, capsys):
        code, out, _ = run(
            capsys, "coop", "optimin", "--game", "coop_empty_core", "--step", "1"
        )
        assert code == 0
        assert "optimin allocations: 16" in out
        assert "(40, 30, 40)  value (40, 30, 25)" in out

    def test_shapley_nucleolus(self, capsys):
        code, out, _ = run(capsys, "coop", "shapley", "--game", "coop_empty_core")
        assert "265/6 (~44.167)" in out
        code, out, _ = run(capsys, "coop", "nucleolus", "--game", "coop_120")
        assert "nucleolus: (50, 40, 30)" in out

    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "coop", "value", "--game", "coop_empty_core", "--alloc", "40,30,40"
        )
        assert "value: (40, 30, 25)" in out

    def test_infeasible_allocation_prints_exact_values(self, capsys):
        code, out, err = run(capsys, "coop", "value", "--game", "coop_120", "--alloc", "200,0,1/3")
        assert code == 1 and out == ""
        assert err == "error: allocation (200, 0, 1/3) exceeds the grand coalition worth\n"

    def test_optimin_with_widened_floor(self, capsys):
        code, out, _ = run(
            capsys, "coop", "optimin", "--game", "coop_120",
            "--step", "10", "--floor", "0",
        )
        assert code == 0
        assert "(50, 40, 30)" in out


class TestMatchCommands:
    @pytest.fixture()
    def problem_file(self, tmp_path):
        problem = MarriageProblem(
            ("a1", "a2"),
            ("b1", "b2"),
            {
                "a1": ("b1", "b2", "a1"),
                "a2": ("b2", "b1", "a2"),
                "b1": ("a1", "a2", "b1"),
                "b2": ("a2", "a1", "b2"),
            },
        )
        path = tmp_path / "problem.json"
        path.write_text(dump_marriage(problem))
        return str(path)

    def test_da(self, capsys, problem_file):
        code, out, _ = run(capsys, "match", "da", "--game", problem_file)
        assert code == 0
        assert "a1=b1" in out and "a2=b2" in out

    def test_stable_check(self, capsys, problem_file):
        code, out, _ = run(
            capsys, "match", "stable", "--game", problem_file,
            "--matching", "a1=b2,a2=b1",
        )
        assert code == 0
        assert "blocking pair a1, b1" in out

    def test_optimin(self, capsys, problem_file):
        code, out, _ = run(capsys, "match", "optimin", "--game", problem_file)
        assert code == 0
        assert "a1=b1, a2=b2" in out


class TestDecideCommands:
    @pytest.fixture()
    def decision_file(self, tmp_path):
        doc = {
            "acts": ["act1", "act2"],
            "states": ["s1", "s2"],
            "utility": {
                "act1": {"s1": 4, "s2": 0},
                "act2": {"s1": 1, "s2": 1},
            },
        }
        path = tmp_path / "decision.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solve(self, capsys, decision_file):
        code, out, _ = run(capsys, "decide", "solve", "--game", decision_file)
        assert code == 0
        assert "ranking: dm-only" in out
        assert "acts: act2" in out

    def test_check(self, capsys, decision_file):
        code, out, _ = run(capsys, "decide", "check", "--game", decision_file)
        assert code == 0
        assert "hypotheses hold: yes" in out
        assert "reduction to security maximization: confirmed" in out


    def test_disagreeing_feasibility_lists(self, capsys, tmp_path):
        # s2 lists only a2, so (a1, s2) is infeasible although a1 lists s2.
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({
            "acts": ["a1", "a2"],
            "states": ["s1", "s2"],
            "utility": {"a1": {"s1": 1}, "a2": {"s1": 2, "s2": 3}},
            "feasible_acts": {"s1": ["a1", "a2"], "s2": ["a2"]},
        }))
        code, out, err = run(capsys, "decide", "solve", "--game", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "ranking: dm-only",
            "optimin agreements: 2",
            "  (a2, s1)  value 2",
            "  (a2, s2)  value 2",
            "acts: a2",
        ]
        code, out, err = run(capsys, "decide", "check", "--game", str(path))
        assert (code, err) == (0, "")
        assert "constant constraint: no" in out

    def test_empty_feasibility_table(self, capsys, tmp_path):
        # Each state lists the one act that does not list it, so no pair is feasible.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "acts": ["a1", "a2"],
            "states": ["s1", "s2"],
            "utility": {"a1": {"s1": 1, "s2": 2}, "a2": {"s1": 3, "s2": 4}},
            "feasible_acts": {"s1": ["a1"], "s2": ["a2"]},
            "feasible_states": {"a1": ["s2"], "a2": ["s1"]},
        }))
        for command in ("solve", "check"):
            code, out, err = run(capsys, "decide", command, "--game", str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}: no (act, state) pair is feasible")
            assert "feasibility table is empty" in err


class TestGenAndSweep:
    def test_gen_then_solve(self, capsys, tmp_path):
        path = tmp_path / "pd.json"
        code, out, _ = run(capsys, "gen", "prisoners_dilemma", "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "optimin", "--game", str(path), "--pure")
        assert code == 0
        assert "(Defect, Defect)" in out

    def test_gen_coop_tag(self, capsys, tmp_path):
        path = tmp_path / "tu.json"
        code, _, _ = run(capsys, "gen", "coop_empty_core", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "coop", "core", "--game", str(path))
        assert "empty" in out

    def test_sweep_table(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "travelers", "--param", "r",
            "--from", "2", "--to", "5", "--high", "8",
        )
        assert code == 0
        assert out.splitlines()[0] == "r\toptimin\tnash"
        assert "(2,2)" in out

    def test_sweep_json_to_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--family", "centipede", "--param", "nodes",
            "--from", "1", "--to", "5", "--format", "json", "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["threshold"] <= 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "centipede"],
            ["sweep", "--family", "travelers", "--param", "r", "--from", "2", "--to", "3"],
        ],
    )
    def test_unwritable_out_exits_1_without_a_traceback(self, tmp_path, argv):
        target = str(tmp_path / "missing" / "x.json")
        argv = argv + ["--out", target]
        script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {target}: No such file or directory"]
        assert proc.stdout == ""

    def test_sweep_point_bound(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                _sweep_values(Fraction(2), Fraction(3), Fraction(1, 10**1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any point exists
        message = str(info.value)
        assert str(10**1000 + 1) in message
        assert str(SWEEP_MAX_POINTS) in message
        assert "--step" in message
        last = Fraction(SWEEP_MAX_POINTS - 1, 7)
        values = _sweep_values(Fraction(0), last, Fraction(1, 7))
        assert len(values) == SWEEP_MAX_POINTS and values[-1] == last
        with pytest.raises(ResourceLimitError):
            _sweep_values(Fraction(0), last + Fraction(1, 7), Fraction(1, 7))
        code, out, err = run(
            capsys, "sweep", "--family", "travelers", "--param", "r",
            "--from", "2", "--to", "3", "--step", "1e-1000",
        )
        assert code == 1 and out == ""
        assert "SWEEP_MAX_POINTS" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "centipede", "--nodes", "100000"],
            ["sweep", "--family", "centipede", "--param", "nodes",
             "--from", "100000", "--to", "100001"],
        ],
    )
    def test_centipede_node_bound_exits_1(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: centipede of 100000 nodes exceeds the 500-node bound (CENTIPEDE_MAX_NODES); "
            "lower --nodes"
        ]
        assert not (tmp_path / "out.json").exists()


class TestBytePins:
    @pytest.mark.parametrize("argv", list(GEN_PINS))
    def test_gen_file(self, capsys, tmp_path, argv):
        path = tmp_path / "game.json"
        code, out, _ = run(capsys, "gen", *argv.split(), "--out", str(path))
        assert (code, out) == (0, f"wrote {path}\n")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_PINS[argv]

    @pytest.mark.parametrize("argv", list(SWEEP_PINS))
    def test_sweep_report(self, capsys, argv):
        code, out, _ = run(capsys, "sweep", *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_PINS[argv]

    @pytest.mark.parametrize("command", list(HELP_PINS))
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_PINS[command]

    @pytest.mark.parametrize("game, k", list(MIXED_GRID_PINS))
    def test_mixed_grid_report(self, capsys, tmp_path, game, k):
        source = game
        if game in SEEDED_GAMES:
            source = tmp_path / f"{game}.json"
            write_seeded_game(source, *SEEDED_GAMES[game])
        shas = []
        for fmt in ("table", "json"):
            code, out, _ = run(capsys, "optimin", "--game", str(source), "--mixed-grid", str(k), "--format", fmt)
            assert code == 0
            shas.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(shas) == MIXED_GRID_PINS[(game, k)]

    @pytest.mark.parametrize("argv", list(REPORT_PINS))
    def test_report(self, capsys, tmp_path, argv):
        files = write_report_inputs(tmp_path)
        shas = []
        for fmt in ("table", "json"):
            code, out, err = run(capsys, *(tok.format(**files) for tok in argv.split()), "--format", fmt)
            assert (code, err) == (0, "")
            shas.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(shas) == REPORT_PINS[argv]

    @pytest.mark.parametrize("argv", list(SWEEP_OUT_PINS))
    def test_sweep_out_file(self, capsys, tmp_path, argv):
        shas = []
        for fmt in ("table", "json"):
            path = tmp_path / f"sweep.{fmt}"
            code, out, err = run(capsys, "sweep", *argv.split(), "--format", fmt, "--out", str(path))
            assert (code, out, err) == (0, f"wrote {path}\n", "")
            shas.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert tuple(shas) == SWEEP_OUT_PINS[argv]

    def test_flag_of_another_family_is_ignored(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        run(capsys, "gen", "travelers", "--nodes", "7", "--mpcr", "x", "--out", str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_PINS["travelers"]
        argv = "--family centipede --param nodes --from 1 --to 6"
        code, out, _ = run(capsys, "sweep", *argv.split(), "--low", "3", "--levels", "x", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_PINS[argv]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "travelers", "--param", "low", "--from", "2", "--to", "3"],
             "travelers sweeps over 'r', not 'low'"),
            (["--family", "centipede", "--param", "nodes", "--from", "1", "--to", "2", "--step", "1/2"],
             "node counts must be integers"),
            (["--family", "public_goods", "--param", "mpcr", "--from", "0", "--to", "1"],
             "return rate must be positive, got 0"),
            (["--family", "public_goods", "--param", "mpcr", "--from", "1", "--to", "1", "--n", "17"],
             "public goods game of 17 players with 2 levels each exceeds the 65536-cell bound "
             "(PUBLIC_GOODS_CELL_LIMIT); lower --n or the number of --levels"),
        ],
    )
    def test_sweep_error_messages(self, capsys, argv, message):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_return_rate_warning(self, capsys, tmp_path):
        with pytest.warns(UserWarning, match=r"^return rate 3/2 >= 1 makes contribution dominant$"):
            code, _, _ = run(capsys, "gen", "public_goods", "--mpcr", "3/2", "--out", str(tmp_path / "g.json"))
        assert code == 0


class TestErrorsAndDeterminism:
    def test_unknown_game_file_exits_1(self, capsys):
        code, out, err = run(capsys, "optimin", "--game", "/no/such/file.json")
        assert code == 1
        assert "/no/such/file.json" in err

    def test_malformed_file_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"players": ["a"], "strategies": [["x"]], "payoffs": [[1, 2]]}')
        code, out, err = run(capsys, "optimin", "--game", str(path))
        assert code == 1
        assert "payoffs" in err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_mixed_grid_exits_1(self, k):
        argv = ["optimin", "--game", "figure1", "--mixed-grid", k]
        script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "--mixed-grid" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_thread_env_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTIMIN_THREADS", "many")
        code, _, err = run(capsys, "nash", "--game", "figure1")
        assert code == 1
        assert "OPTIMIN_THREADS" in err

    def test_selftest_passes_and_is_deterministic(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, "selftest")
        assert code1 == 0
        assert "11/11 golden checks passed" in out1
        monkeypatch.setenv("OPTIMIN_THREADS", "4")
        code2, out2, _ = run(capsys, "selftest")
        assert code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("flags", [["--format", "json"], ["--threads", "2"]])
    def test_selftest_takes_no_report_flags(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_report_identical_across_thread_counts(self, capsys):
        _, out1, _ = run(capsys, "optimin", "--game", "figure1", "--threads", "1")
        _, out4, _ = run(capsys, "optimin", "--game", "figure1", "--threads", "4")
        assert out1 == out4

    def test_selftest_names_a_corrupted_golden_check(self, capsys, monkeypatch):
        import optimin.cli as cli_mod
        from optimin.generators import gen_named as real_gen_named

        def corrupted(tag):
            obj = real_gen_named(tag)
            if tag == "figure1":
                from optimin import affine_transform

                obj = affine_transform(obj, 0, 1, 1)  # mutate every row payoff
            return obj

        monkeypatch.setattr(cli_mod.generators, "gen_named", corrupted)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL figure1 payoffs" in out

    def test_selftest_names_a_corrupted_golden_check_under_optimize(self):
        # `python -O` strips assert statements, so the golden checks must not
        # rely on them.  Same corruption as the in-process test above.
        script = textwrap.dedent("""
            import sys
            from optimin import affine_transform, cli

            real_gen_named = cli.generators.gen_named

            def corrupted(tag):
                obj = real_gen_named(tag)
                return affine_transform(obj, 0, 1, 1) if tag == "figure1" else obj

            cli.generators.gen_named = corrupted
            print("optimize", sys.flags.optimize)
            sys.exit(cli.main(["selftest"]))
        """)
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert "optimize 1" in proc.stdout
        assert "FAIL figure1 payoffs" in proc.stdout
        assert proc.returncode == 1


def test_overlong_json_integer_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"players": ["a"], "strategies": [["x"]], "payoffs": [[%s]]}' % ("9" * 5000))
    argv = ["optimin", "--game", str(path), "--pure"]
    script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(optimin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["coop", "nucleolus"], '{"n": 100000, "worth": {"1": 1}}'),
        (["coop", "nucleolus"], '{"n": true, "worth": {"1": 1}}'),
        (["optimin"], "[" * 100_000 + "]" * 100_000),
    ],
    ids=["huge-tu-player-count", "boolean-tu-player-count", "deeply-nested"],
)
def test_malformed_input_exits_1_with_one_error_line(tmp_path, argv, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = argv + ["--game", str(path)]
    script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=os.environ, timeout=300
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# Only `cli._emit` encodes a report or writes it to stdout: every command
# hands it table lines and a JSON document of exact values.  The check walks
# `cli.py`'s syntax tree, as `test_imports.py` does for imports.
REPORT_WRITERS = {"json.dumps", "json_number", "sys.stdout.write"}


def report_writers(source: str) -> list[str]:
    """Each use of a name in `REPORT_WRITERS` outside the function `_emit`."""
    tree = ast.parse(source)
    emit = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_emit"]
    inside = {id(node) for function in emit for node in ast.walk(function)}
    return sorted(
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and id(node) not in inside
        and ast.unparse(node) in REPORT_WRITERS
    )


def test_only_emit_writes_a_report():
    source = (Path(optimin.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8")
    assert report_writers(source) == []


def test_the_writer_check_sees_a_second_writer():
    source = textwrap.dedent("""
        def _emit(doc):
            sys.stdout.write(json.dumps(doc, default=json_number))

        def _cmd(doc):
            doc["x"] = json_number(doc["x"])
            sys.stdout.write(json.dumps(doc))
    """)
    assert report_writers(source) == ["line 6: json_number", "line 7: json.dumps", "line 7: sys.stdout.write"]
