"""Pinned behaviour digests of ``tools/parity.py``.

A change that alters a surface on purpose updates its pin here and names the
surface in CHANGES.md; ``python3 tools/parity.py --parent REV`` lists the
surfaces two trees disagree on.
"""
import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "parity.py")
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

# surface: (lines, sha256)
PINS = {
    "verify_all": (12, "6a0233b1e426deeb25f5170e531088686b2aec784f6ff2be01a8f5f221dcb3e4"),
    "ball/c4c6/r0": (1, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "ball/c4c6/r1": (8, "21c75f17216833d649e0f48cc54e02c663c8ec7031f000836eead09186c7549b"),
    "ball/c4c6/r2": (16, "6e1067bc432554077ff0cc9ed52dc5e8f2f12d53ce594246c39ad83336aebac9"),
    "ball/c4c6/r3": (28, "3e5dd8813fc7bf231915eb1da2f18e8b3da8f072db14812cc7f6df90f25141ea"),
    "ball/c4c6/r4": (44, "f07cfd5173139bac97180635424aed6362476fe6e8a039fd78fa12b94ca8ee93"),
    "ball/c4c6/r5": (68, "3756017061ba84e44f38aad5e167976cff91dfe42b67c1903e68be854cf9ea6b"),
    "ball/c6hnn/r0": (1, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "ball/c6hnn/r1": (8, "27c88965f00fc991febe46a7fb48e039726e94700e9f7efe3d126b531738a9fe"),
    "ball/c6hnn/r2": (28, "382fe9bcb0a94988cfebc70118037b47c02905fbbd97703993c823d19acb9b9f"),
    "ball/c6hnn/r3": (80, "7b4669b8f0f892f8787c2e4d95fcff947bbda8408bd43fc896fdcfd92e860e19"),
    "ball/c6hnn/r4": (212, "7bdd069db9e75bce31dee63680c81a043ff6c90f6e55711f3250aa35b9920575"),
    "ball/c4c2c4/r0": (1, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "ball/c4c2c4/r1": (6, "3015f1db77114081a17e31e1106aac0d46011e455640df21f4594eb7395e6ccf"),
    "ball/c4c2c4/r2": (10, "28d3a6ed14ab4514d0cbec7e8ebfb714562ef24984c4647f05b0e4ece1a5a4e7"),
    "ball/c4c2c4/r3": (14, "daa7581d58bc3294008c6a996db884be2276edc5f6b792f75f46d3160f8203d6"),
    "ball/c4c2c4/r4": (18, "52bb9c5fa08525f6e32239586031f9c7a8b3c46faeac3da5afbc32956d54e057"),
    "ball/c4c2c4/r5": (22, "4f5b0a77c19dcbab99e74149fb334f818106659f1080e69a1dcfe388d9034629"),
    "ball/c2c2/r0": (1, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "ball/c2c2/r1": (3, "4b707e08949ea79957f1f07f5a778a610879950c30d8e966210d1fcadf888cd4"),
    "ball/c2c2/r2": (5, "f5028ebf9e17f0ace2507ad7be2226bc23fd09d9d4678b0368eb07dfb7bf2953"),
    "ball/c2c2/r3": (7, "acc66126b58980c1d1c9b9d8afcb7763d8ceb0ad8be0805843bd45e90d8273cb"),
    "ball/c2c2/r4": (9, "7e5ac502aa8c57e4ba7b7431a4563ba233a1a4ee1b57d0913a32d8a02c545ec7"),
    "ball/c2c2/r5": (11, "d4751cb611188699739fbe5ccc65a9bbcc56ddf00f3c4e21b89ab8d9a2a69056"),
    "tree_dot/c4c6": (24, "771ec5bdd337483e851100ade868db754d207b6da6fabf9c059e976947c25f5e"),
    "tree_dot/c6hnn": (376, "463a50ab3c2e35b9a9ce16ce55f6b97c09b9271b12d4a6f576afc4a02dca32ab"),
    "tree_dot/c4c2c4": (16, "ac7f021974391e0d2ebc67dc929013c775ef10ec5448e03eddd7e6f5b46913d6"),
    "tree_dot/c2c2": (16, "650f642166053936c0d20a7ab3142bedf5518f3c278278cefffc1d450538c7a0"),
    "reduce/c4c6": (180, "384dab4f5c94d656a377c3db1672f5f9db6a53e2373c68675c849878e51342ea"),
    "reduce/c6hnn": (120, "a5c8125538bef2ad422cd750dd75d8579c8b6d1a4f688dd469bc3c18de48f711"),
    "reduce/c4c2c4": (240, "770ddc0b60bad524c1f1a07a313d9952e902cbf911e1be17336e2794ad0d634a"),
    "reduce/c2c2": (180, "3e6bda5c332803aed7a71dc707fc2448a8d8bb19f285f250ebb6c89ade733721"),
    "reduce/expand_demo": (180, "502353f169d6ccb2d6333ff7f15ce03f2f80ef16f9136f6eec05e0e440d1db76"),
    "coset_rep/c4c6": (10, "eeac956ec1291f46205b96e725f9a650cc56fee4ccba6834443d3486b45dc7cb"),
    "coset_rep/c6hnn": (12, "cfa3e0b829028f87f05e4df59b17886cd3cd675e312eb41f7988b3e3d5093211"),
    "coset_rep/c4c2c4": (12, "ca3860e91f99535edb17c434c7d5eaed493977baa0cdd71bb0580cc824cb77c9"),
    "coset_rep/c2c2": (4, "630c82b9463ed3be11d99bc638a73e9471577cea0e871c465922bf3f027fdab7"),
    "coset_rep/expand_demo": (9, "d51b2646fb694a6ec79e08c298fe5d6b16cb747a0b86d18893e4488832bbb159"),
    "inclusions/c4c6": (24, "525a7330afcc3e18a9f79275c71d422f41b8a64602118abdd0486ec89c3111ae"),
    "inclusions/c6hnn": (24, "183394edb51ac706be293bf4d58769188a4ff76a4c43efbcdac2ab6d5628054d"),
    "inclusions/c4c2c4": (48, "a8308f122d918eece733584d027afd5689bb897f8d4b3dcba5f361cd1ab96f5e"),
    "inclusions/c2c2": (24, "25b848ab0ba10b92f53369fb7c9778b98e1f62b50f8b20f6427697957c24b01d"),
    "inclusions/expand_demo": (40, "dde78e5e8bbb6a03fa7d671216105f1002165810ab9d4ad16c726f7484f27d0c"),
    "c08/reverse_c4c6": (131, "8d04b6e50c5bd28c3f10a9c83b8f11ba8cce4f1b2e28fc1255dd2e9bee44ba72"),
    "c08/attach_c4c6": (235, "eaddff1f22759ec118eb1ceaeef5f9fa70c605e775c7c256945c1b15a7688772"),
    "c08/collapse_after_attach": (216, "fabfb49268ba2fc2beb44e29de40efe81a8307dcc409e0c0e8f7956177245edf"),
    "c08/attach_round_trip": (163, "5992af6b71a31dff3b784bc43b6ee282af886302fdf1a406fe8b00511569ec16"),
    "c08/reverse_c6hnn": (107, "285799813adb36c9f7e2af53a0dcfec92480100b26b8964895c4003be579afc3"),
    "c08/collapse_c4c2c4": (148, "a27518a5c8f34540b9d94432c68fff9b68910add05ac852fd53e10803cead208"),
    "c08/expand_demo": (190, "53b16027a427c48f70ab2befe47b9d92fb56f21016d6da769eadcf6b282b7e11"),
    "collapse/c4c6/e": (1, "48c21c4e9940d1f98fd1f5ed94b73e2aa1e8282ed79540a7e13e789df782b2c5"),
    "collapse/c4c2c4/e1": (148, "51e395a74451d4251f50d76f63b3a5a7bd33cd9b156852e8446f8207b58209af"),
    "collapse/c4c2c4/e2": (148, "d9930f17845f0c8da4418cf3f5573a9e80a6530ff44a0873cffd8980e7016af0"),
    "collapse/c2c2/e": (1, "48c21c4e9940d1f98fd1f5ed94b73e2aa1e8282ed79540a7e13e789df782b2c5"),
    "collapse/expand_demo/e0": (179, "8c3f0956ba6d5d978053448b2f5d2c3c23405d3a7588a402e3b8dcad4382254c"),
    "search/c4c6": (40, "1e89a83d64493a946e1067465afc88efae487ff2480d746853332b0ca8c6a087"),
    "search/c6hnn": (30, "d29dd66621b3d7a014b8b783d28b7fc64f207369cfad537f38714a81017f4313"),
    "search/c4c2c4": (40, "fa14ab2e36bfc7c8e76ed6d3662287e86416ab88d2e9df2f6faa20abad21fe7f"),
    "search/c2c2": (34, "8c3b58f82e60343ec94a0e6201486df3b7d06e1f0ca27d4ab1552d35ad364897"),
    "evaluate/c4c6/dunwoody": (16, "28ca90e5a14bf86e5cbd3a513a6886f70bffee70a7e492dbe087e0cd1b19b60b"),
    "evaluate/c4c6/access": (16, "3ae0254fbc3c6d3f92c0bdd7d760431111385c0babc48f4c5bedc6ebee8ac873"),
    "evaluate/c6hnn/access": (16, "9ad4f0c54f7c8a5006cee458474c4ae7dc2ec3f4f692259f7de1f8d47017cad8"),
    "evaluate/c4c2c4/dunwoody": (16, "fe5f8b2b82e42fd9fee735e89c8b5811a871eb9ba8fecd0ba1e5b79822df63a7"),
    "evaluate/c4c2c4/access": (16, "bfd5552101f1248debcd6b53869a8b64914935bc2f40395de41e00103186f183"),
    "evaluate/c2c2/dunwoody": (9, "f52269c23feb8f629d6334586c81d1ffb8bbfb6b08316487a3ec39e92a7dc5ea"),
    "evaluate/c2c2/access": (9, "fa985b3255f795f7c8ea78f9f27d4d45cb4cafb5c67fb428a67eccee179b4a7d"),
    "deriv/c4c6/access": (85, "bc773cec99b41acabb7dd1488c1e8f9840bbcc2df2e68b8498c647e0e267b050"),
    "deriv/c4c6/dunwoody": (85, "bc773cec99b41acabb7dd1488c1e8f9840bbcc2df2e68b8498c647e0e267b050"),
    "deriv/c6hnn/access": (30, "3850765f5c25b6834d36dbeee239322a756da5dd51ad5f3bc04bcc059e5d0f2a"),
    "deriv/c4c2c4/access": (91, "56cc2b4a93801b3e2bd10419ed09f7c6ed6a48d3c36744f1c5bc4d6c51cd955b"),
    "deriv/c4c2c4/dunwoody": (49, "b50fa9ed83a379c8e074910b7507f8d33d27234d944e84a0886dfb7df640c715"),
    "deriv/c2c2/access": (22, "9b5dab32917baa85ade7eb5391add871952dd6b12d63250f4f70c72bca99b9df"),
    "deriv/c2c2/dunwoody": (22, "9b5dab32917baa85ade7eb5391add871952dd6b12d63250f4f70c72bca99b9df"),
}
COMBINED = "39bdfbba8687add5c3faefdf5d3db74715932df55fb65cfed53c672931c2fe35"


def test_every_surface_matches_its_pin():
    lines = parity.digest_lines()
    got = {name: (int(count), digest) for name, count, digest in map(str.split, lines[:-1])}
    assert [name for name in PINS if got.get(name) != PINS[name]] == []
    assert list(got) == list(PINS)
    assert lines[-1] == f"all {len(PINS)} {COMBINED}"
