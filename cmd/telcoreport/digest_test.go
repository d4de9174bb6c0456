package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"telcolens"
	"telcolens/internal/trace"
)

// writeC generates campaign C (`telcogen -seed S -ues 1000 -days 14
// -shards N`) into a fresh directory, through the same file store
// telcogen writes.
func writeC(t *testing.T, seed uint64, shards int) string {
	t.Helper()
	dir := t.TempDir()
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(seed)
	cfg.UEs, cfg.Days, cfg.Shards = 1000, 14, shards
	cfg.Store = store
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// artifactDigests cuts a full report into its artifacts, at the heading
// each one opens with, in -list order, and returns each one's sha256.
func artifactDigests(t *testing.T, report []byte) map[string]string {
	t.Helper()
	heading := func(id string) []byte { return []byte(strings.ToUpper(id) + " — ") }
	exps := telcolens.Experiments()
	sums := make(map[string]string, len(exps))
	rest := report
	for i, e := range exps {
		if !bytes.HasPrefix(rest, heading(e.ID)) {
			t.Fatalf("report does not continue with %s's heading", e.ID)
		}
		end := len(rest)
		if i+1 < len(exps) {
			next := append([]byte("\n"), heading(exps[i+1].ID)...)
			if end = bytes.Index(rest, next); end < 0 {
				t.Fatalf("report has no %s after %s", exps[i+1].ID, e.ID)
			}
			end++
		}
		sum := sha256.Sum256(rest[:end])
		sums[e.ID] = hex.EncodeToString(sum[:])
		rest = rest[end:]
	}
	return sums
}

// pinTable renders digests as the Go literal the pins are kept in, so an
// intended change re-pins by pasting it.
func pinTable(sums map[string]string) string {
	ids := make([]string, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "\t\t%q: %q,\n", id, sums[id])
	}
	return b.String()
}

// TestReportDigestsPinned pins every artifact of the C report, whole
// study and one-day window, for three seeds. Each digest must hold on
// one and four shards and at -parallel 0 and 1, so a change to the
// analysis that moves a byte of any artifact — or makes one depend on
// the shard split or the worker count — fails here by artifact id. The
// pins are amd64 values.
func TestReportDigestsPinned(t *testing.T) {
	windows := []struct {
		name string
		args []string
		pins map[uint64]map[string]string
	}{
		{"study", nil, reportPins},
		{"from3to3", []string{"-from", "3", "-to", "3"}, windowPins},
	}
	for _, seed := range []uint64{7, 11, 42} {
		for _, shards := range []int{1, 4} {
			dir := writeC(t, seed, shards)
			for _, w := range windows {
				for _, parallel := range []string{"0", "1"} {
					var out bytes.Buffer
					args := append([]string{"-data", dir, "-parallel", parallel}, w.args...)
					if stderr, err := runTo(&out, args...); err != nil {
						t.Fatalf("%v: %v\n%s", args, err, stderr)
					}
					got, want := artifactDigests(t, out.Bytes()), w.pins[seed]
					moved := 0
					for id, sum := range got {
						if sum != want[id] {
							t.Errorf("seed %d, %d shards, -parallel %s, %s: %s sha256 = %s, want %s",
								seed, shards, parallel, w.name, id, sum, want[id])
							moved++
						}
					}
					if moved > 0 {
						t.Fatalf("seed %d %s: %d artifacts moved; the rendered digests are\n%s",
							seed, w.name, moved, pinTable(got))
					}
				}
			}
		}
	}
}

// reportPins holds, per seed, the sha256 of every artifact of the C
// report over the whole study.
var reportPins = map[uint64]map[string]string{
	7: {
		"anova":    "f17ef023a737b40cc998221cbf09e92688f3ea2872df11bd35e397c981ad0856",
		"fig10":    "0bbc3caf993f6c8cd1bbb56e442835ccfd5d9b17a4d9651228aab3e89901da44",
		"fig11":    "f6c63a0502bcaa0f5919bcf3f1afdd3e19d7df42d65a1de953e8dbad5694023f",
		"fig12":    "1bbd9a39e8e87e3a3a0145d1f85a5f889c7b52b9859423da0f5ffda4515db940",
		"fig13":    "b6915c8456de04dc6b8064d0e7113efce4f614179d4165448f2186e42c295d9b",
		"fig14a":   "5d55e1ce008e8f44b7aa58c4725fdfdb31842a53cbd4a89546a5f789a2b2a08c",
		"fig14b":   "d1b4d6ab4ec911cb329afd1b797e37dc1305347bd0cd7be9d9705735cc538282",
		"fig15":    "0506fe393fd712b17bedc0e598ae6363fb4585bb85e65d16c8ac230df7f48f0f",
		"fig16":    "ea1f239e125164e50e150caa9a15f820797d9f21aa8f159087295280f18bc753",
		"fig17":    "867569d9b543ab5f841f3684c6d2503a23a4f60e45035f53e13e255a55144f1d",
		"fig18":    "0b7a123c93c0596b3cc9e90b6d212ad15afd11e8b3515f1524199abefefeb229",
		"fig3a":    "daaf6944aaf0edab4c7e612b5d90e050da3f773c14a22afa6eea639c5d6cb845",
		"fig3b":    "2924634ddbc1f57db21cb5c58147fe6cd83e9a9e4268eb41cb4a7870d18f1959",
		"fig4a":    "f732e0f2ac874c14801e80c41ee2163e3dd19f29cc9a74e4ec372445740b8cbd",
		"fig4b":    "ca28998a45ffb798c555aae7f7c9527d3b551212c6ced8fc3f9885e5808964db",
		"fig5":     "3e0001ec8c5d6db3ea7bc82ddd3023860d2bc9c29e37e27a5015efabdb1214b5",
		"fig6":     "513d8fc1b2e3e99f9efdd45129a288a99ea49bc06eb56506a3400d340c36126c",
		"fig7":     "3b05208815c81d083c9898144baeef61fd99afa99ccbd207f17063ac6a120b58",
		"fig8":     "ac944cd076cbf26a34951df4a53646e7a2278df9205e77aae783e5545ae6f6c6",
		"fig9":     "be488e594f67ba2ea58bce708eb6a5d39be2c8823642cc96705f44dcbfc8bb97",
		"pingpong": "358d7f0b90bc7f2f633c30afcb2884f339ddf3abda48491a09dfc68d80c768da",
		"table1":   "99863002ccca4f87d49737d008235b9f6f7563662c611f5c665092ded5d8831d",
		"table2":   "f0c3a8199af3e3d12a59bce4779216219dbb1535818f08e1dda4e9f43c49e8c1",
		"table3":   "884621b2d5e76860a5de5fe95e601fc75c76366f6b74749989e98e2b1530ce23",
		"table4":   "ed88929b2abbe5c1674a43f87985f01502727aa3f497b894a8cbe17a8ecd6f37",
		"table5":   "792556bde8648b1e3e8dc7712934459db367616df589cf02cac439887558ca08",
		"table6":   "64cc6937c254a7cfe2da1efa89f950a21e562b08c1ccdfb643857f229ead3475",
		"table7":   "0da6c26bc3d05a04ca8220839060545727ad6e2f2291a9736e99350bb9564f7b",
		"table8":   "c2d11ae7cc6df4d8b044f814e5b031cebaeec9c89583d533e3548213ae8b8522",
		"table9":   "99a01c3d1b8ffefd3e37b39aeca27edd8f8667255c55ee26261665ff93363b8b",
	},
	11: {
		"anova":    "bb89dd70f09f027e42f4bec7f31dcc85bd109ee3ef026ea3cdca49cc2fbd4fad",
		"fig10":    "d58386abed63bd5736e53f507e0b1222d98a79805c639c175a7708925dcb25cf",
		"fig11":    "69a31fd4e49cde8f2703b930b5a6948ab2834f7138d93c235eef7549341156d9",
		"fig12":    "ff1fa2e563f9b34267c4c570c2797621eb0920992190ad390997f97f8ad7aa31",
		"fig13":    "1dfd33308850dbd6191d1f43c3563381d3d224d7adc0cc923eb06e12a552e30d",
		"fig14a":   "0da4fd202eb265b31cb016a7378a6a1a99298998535144183787c4beebc90bc2",
		"fig14b":   "04bb4b475f67d3f402d785190fe67c6ea96052db3345cc7be8ba1a749eb8293a",
		"fig15":    "2d1fe7fa744b43a8b73f9970103d0bda02fccbe8c028b85bfbf7563828554616",
		"fig16":    "fea99eac183dd087ff174be9d2a38fe764f7cfc81aa4273b887e9cf0974bfdaa",
		"fig17":    "c2a60aaf80cc0577675d5984a3a5994205ab679bd7c241e117de4c27ebe45e3a",
		"fig18":    "acd2fb665a63cc3bcab4d4052afa5d3385b2201335fc5b0d0319bfb35b5eb3aa",
		"fig3a":    "d15b3795066c7d805a417bb07e438a9c8435e967787b700a201156bb187cde8b",
		"fig3b":    "88f0465d17b719b4085ab4f06aecaa40f22d11be5bacf2761499204f9ed15372",
		"fig4a":    "f8620a19fa8932981266b561ae0a13730fb3ae2a465c4ef2d47e2134b23e5646",
		"fig4b":    "3baada818cac7298119e059082c57e000c6be1001c8e14ff3d881f460668ae10",
		"fig5":     "d6c1f069487a8b87c1e6cad958ea990c61fc6a0186062e7597ceef3b63b2c487",
		"fig6":     "1dda0dcd0c5f523b6f144191b1a5c85f6a4c94270bce5c0cdc1b35350913d42f",
		"fig7":     "b94e7164fbe784de4dfd355c8dfd6c60ef20601eca2020948c2ec5990e1dfc62",
		"fig8":     "e53833fadad6c5939fbb2a5500a6dbccbf704a8b7a7ff05c1ba19d78f89dee8d",
		"fig9":     "8f2878669d3fc5aa8aed1003e4d7726c88d81d041f2f05892afd817f9106ffe8",
		"pingpong": "2190292d70ef46d9bd558e7d513f0317d874c381ec0fdc146d39aa0cc794d29d",
		"table1":   "814a6aaae295da00fe782a3e2a02e3f54b0c7ae09616a1b2c690792396decf6f",
		"table2":   "fe90d305f5ccd9c143a801cb2e2194b725377bfbbe7a590354204ce8813c0e93",
		"table3":   "3bede6c8d4d0809c0424f81473f2a15581482ea01eeeeda0960c66b5398d3e1d",
		"table4":   "1d8455748d653707b90cd0ebe13b4cbd0f3c56dbed3962311da218602d001ce2",
		"table5":   "a85413892c20484befb9fec87216ccbf65393d40b3dea6d88e36f888015ef266",
		"table6":   "b9bcc881fab5cba29abd1dbe0e36aad542e40adac39f7c0fba8b092cc2ca0b50",
		"table7":   "00486257ec8d58328b7eff01d89ce0c5a0d2c139a665d6df61d59b5d5f43a9f4",
		"table8":   "4fd9f41b9e1ef63dda5f606fb72c64faa087a91e5fc59b3f7ece5abba24a8563",
		"table9":   "42dadcc02abce7be405790a0a5bae5b7fa9c144f8e117181a4fdd67aae372a5d",
	},
	42: {
		"anova":    "0963b1a28a91ea3ee9a3d5ffae208fe6ec16aa5f2628d50e7884f2882b8560cc",
		"fig10":    "76eeedc32348bd479492d7c29f893472c1826e04c4e58f55495a41f182c16c5f",
		"fig11":    "1591f1f764ffe4515052872595d534648600a3dd6a8befd8f8ac748879e29cf2",
		"fig12":    "a8aaeed3df346a7565a6e47e2801e63c901d97d31d0ae0571118f4679ef4929f",
		"fig13":    "99e4e2277ef8ef8248f1490fc4458bc0848556b0d638d5e3fd953bcffa8bc65e",
		"fig14a":   "86ec1e2ad7a60c27906132126e5ec123a0a9ae07ff7d84be6fbd26453482dc3a",
		"fig14b":   "c7565c7305e3231f22f153393d125b7f6ba48bc6ab8a69ff565fe4caa5e93d63",
		"fig15":    "bd2f2d03f0d8e989b620d3939874ac66f964a6f226f1e9a3d28a79b068a8cc38",
		"fig16":    "f7a0f6a316e6fc9e2c12e8cc2d76c2604c988b5111edc47aa2070d52f9906932",
		"fig17":    "a075b0e402d89135c611a8e21b2f5893ca3f939546576db17336c286b2bfd54d",
		"fig18":    "c307bead66bcbaaa09b018da038bdd35923232d213a3e27b3f6157dbaceb3006",
		"fig3a":    "62b705655074a8925327e3be6979e43bf288b1695e272e0e360ed742e5019fb6",
		"fig3b":    "b82b78c39480ede140fa2fa5548bd08fc75fb1f5ada63840a385d80b5fb8f4dc",
		"fig4a":    "b03fab5998bcbab57bfcead8f6140c49cbd7f5370b2a85cb9aaa96bbba0e0656",
		"fig4b":    "eb216c754fd6bebf3c9e83b00e26f9a3a76b3ccfe776024158f37128dd1d463b",
		"fig5":     "1ff79b6bbd2c88745ed7be330d61cadd0c844a693140f46f7c7cff4ae170dd45",
		"fig6":     "2d93430ff43fcd2306d9709221f6b40e6d513892b4579c7fa6b684ff941dd858",
		"fig7":     "eb746b82b4f474a38b5e937bda3d421094b1ae3667e50ab52b6ea867bf5a7cdf",
		"fig8":     "68adab1255cb714b52285747718cba56ea9ef049400b6fd1311e7769b69585e1",
		"fig9":     "bec4cf547d9fe77f5914ed722371151cf2252fcdeb4c3336d1e67a0d842bbacb",
		"pingpong": "5b13987cc382c557dad02eac3273f457ac50df697eefaa4852430e5adfe89646",
		"table1":   "93c4f37acacef5e3315e485c6c3be2f6bfff001e0987164eff14af30b716b7b1",
		"table2":   "4af6948210aa96d2cc4dc9bd63f001c73065f1cc8decc0bd8b31f34cb29541b0",
		"table3":   "9a4cd01edab2a947cc75b590838369403ac1a1c26cb8b757c51f1553dd5e86e8",
		"table4":   "4c9ac6708f91b1a3680c2788e4db7ea79c81c2f55e1b9ef04fb4c46520d493ad",
		"table5":   "173275429dc1293de6fd57fcb2431ba614930b2dc09f13f4a874adcf1c8d04de",
		"table6":   "b077b49e01a43933038479223708e5f0f77b6c4464dee9e953a05e546a2af27a",
		"table7":   "34cf0bcb2126836098768cf9892bac7b4a4f472c4a7f755d3df0e6a7b3eab965",
		"table8":   "9d383aee92223013426255871da996d58ced23495b3b2648dadc5ffedf7068cd",
		"table9":   "993b8f279d0110c0e14c0f140129928bda3573633884300effcb643acf9a1470",
	},
}

// windowPins is reportPins for `-from 3 -to 3`.
var windowPins = map[uint64]map[string]string{
	7: {
		"anova":    "636e7ffb2b4057a6d020030c4441e33b6f9600abde51521fa259ba1316cdf9f0",
		"fig10":    "6a59959081903e6665bdb63a4e2c030550b070cf6303e3681785f5c37d4a5d18",
		"fig11":    "3d1daaea626a6bcc2b8c24bed0a9f9f5fa41db8fb7b20dd9dc58b79193e3ea53",
		"fig12":    "0b955deac27f64fd8ea8567288c9b24cc7995d9b7cd9944b3f749dd2b13f95c8",
		"fig13":    "a32af75e1c11123e956cc64149d45f8d511b28d9e34cbf9a8cc14383ba40c30b",
		"fig14a":   "edb539d3765782a86c94f55a71f0a7549ef7ba083d385e9cc6f155aa04c10828",
		"fig14b":   "4f0c74671fc719a095a9417e684ef39cb13a4d9484823e6b11211fe6cbc9296d",
		"fig15":    "1fdf49769f39a2e0f04173c31495a7b20f713e7cb5ca5a6028613adf558bd37b",
		"fig16":    "96ad100c3c1f4304874d9be524b04a2bf1fd9cd2850b0b09b6f9603df4432b87",
		"fig17":    "5c863fa473f1484e8bbd37e9006f715f6138d140cf01f0d9e898124266cc5d50",
		"fig18":    "5d1ffa293b29a32c47cbffee6fc27530b463cc6018b6cf305a893a04c48a8f2f",
		"fig3a":    "daaf6944aaf0edab4c7e612b5d90e050da3f773c14a22afa6eea639c5d6cb845",
		"fig3b":    "2924634ddbc1f57db21cb5c58147fe6cd83e9a9e4268eb41cb4a7870d18f1959",
		"fig4a":    "f732e0f2ac874c14801e80c41ee2163e3dd19f29cc9a74e4ec372445740b8cbd",
		"fig4b":    "ca28998a45ffb798c555aae7f7c9527d3b551212c6ced8fc3f9885e5808964db",
		"fig5":     "ba1b19b12023926339415036c390ce6c6079adf8cb7384fc6fbd79d2cb8eeca8",
		"fig6":     "8939f56b04604f8e0cc649dd7da9464063f11df07a7625f0d4f26ca693c2e571",
		"fig7":     "110ee7132fdc8bef38f672cdc837e534a41e0636393d97d011ca0f53d77ef231",
		"fig8":     "be3ef0167ffa4e789adc614c1a7ec37e39e661dff862f436d2e6f3629984297c",
		"fig9":     "434299ec4c5f4d468afd347e32121aed6443a54decb46ba20ad603a0f2e69389",
		"pingpong": "73238aab79fe28c63fc0547212ac98ab918642b2f82248151862fbf603a24b8f",
		"table1":   "25b84285fdec0bb72af9f6885466a3cfb74e4ab8228c6b22f10c85c5e8fbd53b",
		"table2":   "36ffe8651c7470f8ad7175de6e6013087771d9dd4b3bd2b63faa3d5aef525ae1",
		"table3":   "686c44982714e501681de56083e1d6e7f92a54eed4c685dfbb5f530998f10446",
		"table4":   "700d4661ccb46f4ef815d8ef4114d44e79cda8adbd3e134aa05e46428633fb2c",
		"table5":   "593247837e8a1769bfff533f4a82586bd832ca22d5bb19f6f101124512793ee3",
		"table6":   "193e6d0c5bc09df1b0e260b42cedd6634b04e368853d4bcda8b57251ad8d19a4",
		"table7":   "44c55ec77b165db9744b2af42346396106c22dfa0612da186bb2bfd6e8bb9390",
		"table8":   "295334ebd6329c15dc9c3f01e99d6d91de44a9138a7e26629cefaab7ad0b0a00",
		"table9":   "ca7ddbcd7366dcfe15aed73bafffe457b1788836a82fb9e1899a27452b790865",
	},
	11: {
		"anova":    "041ecf69e301a4ffaf0c83cdf2bc82d2278615ca452b37cf047714bcfe4ccb5b",
		"fig10":    "7809006f157efe5dcf1c099f375a33a8d670c83e72bb73c294bf90060387f3a5",
		"fig11":    "586772da51d0201000ee7722b71599a8ef2ffad0f25260663af99c9ded17ed44",
		"fig12":    "8921ed472526daafe8a3001695c408ebeaca4b34137a5b11e5ba64609fac6a93",
		"fig13":    "56ba16256c94739cf4dfdcd74c4621864322677595fbcf76b95373c8484ff658",
		"fig14a":   "fab0919304cff581ca9928f01fe54bf35134d0becb10bb9da0628015c5e7d863",
		"fig14b":   "e30a5e4e706e152e3edc51bbb496a916149715214ce763a6a929cf2b20dd4142",
		"fig15":    "d6c3188fb99a35d65c73770beabfa6f0dbe4cda4af41461bb458ed1607019eb2",
		"fig16":    "c649e4243d6a3db6e027dbb1aa853533477c6167321872157f79021168c396b0",
		"fig17":    "4d620090ec97b93394b987d5ebcc9811d8fbdb4addb115aa54c6b1ddf72afd7a",
		"fig18":    "fa328e15149eb6d89be0dd361d20fb2d2e4060769aae94f9a1c309242b015069",
		"fig3a":    "d15b3795066c7d805a417bb07e438a9c8435e967787b700a201156bb187cde8b",
		"fig3b":    "88f0465d17b719b4085ab4f06aecaa40f22d11be5bacf2761499204f9ed15372",
		"fig4a":    "f8620a19fa8932981266b561ae0a13730fb3ae2a465c4ef2d47e2134b23e5646",
		"fig4b":    "3baada818cac7298119e059082c57e000c6be1001c8e14ff3d881f460668ae10",
		"fig5":     "ca56f34c8c4ee154dfc11b3ec8cc67e2661a0c69f70d825b02356e2a8787d21e",
		"fig6":     "519c58c3e47206c660a95dfb65f0115646e5b1897540bcf4fee20ddf29c193d8",
		"fig7":     "79e239afa9f7087f13b2a3e6e8f60ec6ebb56f55cff3921138ea549866d3a729",
		"fig8":     "a2d4ea1b0f95470027ccce28d2dff89ada82a2eb1d528cb6e109caa195078d84",
		"fig9":     "31abb5e6dbc090c60de1976a092596013c471af98292973d07b4fcd3472e8332",
		"pingpong": "90eab1c524ad843a3e2a5c3d0e1ead6af2a94cac56c053eb8a8c563c52c6f817",
		"table1":   "5df7b49751206fb6c57eb3ec7c888faf49ad914c9f226e7829b23947685c31d9",
		"table2":   "75fe49faabe84f1aa7570d6a44e3c509b35c31793829f5c5183e32b57c05cd3b",
		"table3":   "c2750be35d816435c34288dc173274b81972787b0d1cf436f36a2044e78f46f2",
		"table4":   "bf08bd9a0f9e698edfcbc8e0b37a785d0954cd58667f4d7ea99edb762c6f05fd",
		"table5":   "f736da3e9458f977ed70f07d948677a1e6161480af29bd4c95e2ce7295a66251",
		"table6":   "1ae786adff551769f3657363c3700a27b8e16b096dd9f46c64d70152e49cd68f",
		"table7":   "714a4f3568de063683e8c57d194f4f85f8f4ce57b9c24af30a60c02ae7c734bc",
		"table8":   "c35e0e474ac2f163aea81973f712189f5a2d7fa933003305303ed4ddd3e98094",
		"table9":   "07a967d82f0a79a45bfb9b92c02ce07bd8f9ee059e7b4c8193fdecea6ee6211f",
	},
	42: {
		"anova":    "22bcc7cde478f8c89e74f69c4630c0bc108167f49060b2c220b3ba079c5cb938",
		"fig10":    "7913eda6c5a66b2b5390f26840f73d7f04f3e399c53c5897165fd8c21457baf1",
		"fig11":    "bd10329f75772e5c148cc57bce4fb730d92b91babb0f8e6876cd514faa82489d",
		"fig12":    "70acc1c0aab3d4834542dd4574b3ab93e8ab77c4b59685dcdf724bf8424bd776",
		"fig13":    "494bd8ed550c946a15f19714bb28e5ef5925c0779f08bd3c31074faf6f5dfca8",
		"fig14a":   "2887887019293f66538e0e7862e604b3de58c58e58bb3e1c250c5f577769a492",
		"fig14b":   "0cac4f34d354c712862c7e0c7e4b74000ce98fc833de16a44ec4065fda1384f1",
		"fig15":    "75f975e90a60357956027760df2762de1818e3aa84ce65b861eb21d49875325f",
		"fig16":    "b993271b493c933e90f4b47efb766a1346cdb429fe03cc528067d7b3e53b0f0d",
		"fig17":    "8da9449fe8c8dc6dbb3569585ecc06ae64891db7ceac4a46f599ea3fe98bd67a",
		"fig18":    "5fa3d6d566470e61255dacc8deaef2454068121933a41ce44874e2300e171c75",
		"fig3a":    "62b705655074a8925327e3be6979e43bf288b1695e272e0e360ed742e5019fb6",
		"fig3b":    "b82b78c39480ede140fa2fa5548bd08fc75fb1f5ada63840a385d80b5fb8f4dc",
		"fig4a":    "b03fab5998bcbab57bfcead8f6140c49cbd7f5370b2a85cb9aaa96bbba0e0656",
		"fig4b":    "eb216c754fd6bebf3c9e83b00e26f9a3a76b3ccfe776024158f37128dd1d463b",
		"fig5":     "b3053200c9c6221bc29e3f5ab13f8d33e595cc4eeadda21373105e4d2745f565",
		"fig6":     "d53cececed523b85ce68dbfb72cb5980031e19b919ee8b8665b506b277aaa042",
		"fig7":     "e89c87666ab340636950901802a24906c5665f86573bde2f9aa5f6adcd753b3e",
		"fig8":     "b05ca08eefe83f6470cb4a15ca10684819d26cc097e67cc5144cfb2b0671bcfb",
		"fig9":     "8ef0d3164284273510ea9c6f80c1162f69423030b65559a3f2336ae2bfd57599",
		"pingpong": "2ff6ad8bf6811a77106ade55192b107bfd8336270536f68c4d50212e8e6f9ec6",
		"table1":   "6d5b38e2dc3f14df36d52c398234c240cd035b86cef1f13b37b3843c987c9e91",
		"table2":   "33d602ef19c6b289fe52d746d2d6a270cccafeb91fde3416c33ca21fb3501214",
		"table3":   "eb2caa3ec8c679ddfc5505987793b1a5e13f46e7c24f78f8f4f541374a6b02a5",
		"table4":   "780b3af7173fdd8c729cf88cdf917a4c2f28a7675395e20a929e045c83a6488f",
		"table5":   "e8ccbd8ca9d75797d8803effaca02889db66b84479df551d6fdc3f5948edd4e6",
		"table6":   "2cff6a04d2fd8fb6fbe9d832561bcd173d4c58b12ae14dab5b550ec9aa521492",
		"table7":   "8226940abab870ea3f619b71873269487145f1c330af3089b337e1491a62ba1e",
		"table8":   "d056f65d72e2cd6e85a6fb48953158f1a3ee08ae45907c2eb65ee3baec5e9e59",
		"table9":   "fd46f43eb66417393397b4573b0e1b64262a82117ae61938ffc04d57b343029b",
	},
}
