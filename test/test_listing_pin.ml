(* Listing pins: the disassembly and symbol table of every query of the
   serve-hot pool (72), of the first 200 queries of the serve-churn
   pool, and of queries with lifted control constructs and builtin
   parallel arms against a database with builtin arms of its own, each
   compiled sequential and parallel.  Recorded from whole-program
   compiles of the database plus the query; compiling the query onto a
   database image must reproduce each one, since the traces name code
   addresses and symbol ids. *)

let hot = [ ("deriv", 24); ("qsort", 24); ("tak", 12); ("matrix", 12) ]
let churn = [ ("deriv", 1000); ("qsort", 1000); ("tak", 24); ("matrix", 500) ]

(* The traffic seed the benchmark's serve workloads use at seed 0. *)
let seed = 42

let symbols_text s =
  let b = Buffer.create 1024 in
  let rec dump name i =
    match name s i with
    | n ->
      Buffer.add_string b n;
      Buffer.add_char b '\n';
      dump name (i + 1)
    | exception Invalid_argument _ -> ()
  in
  Buffer.add_string b "atoms\n";
  dump Wam.Symbols.atom_name 0;
  Buffer.add_string b "functors\n";
  dump Wam.Symbols.spec_string 0;
  Buffer.contents b

(* [Wam.Program.with_query] on a query text. *)
let with_query image query =
  Wam.Program.with_query image ~query:(Prolog.Parser.term_of_string query)

let digest (p : Wam.Program.t) =
  let listing = Format.asprintf "%a" Wam.Program.pp_listing p in
  Digest.to_hex (Digest.string (listing ^ "\n" ^ symbols_text p.Wam.Program.symbols))

(* Builtin arms are emitted after every predicate, query included. *)
let arms_src =
  "p(X, Y) :- X is 1 + 2 & Y is 3 + 4.\n\
   q(A, B) :- (A = 1 ; A = 2), B is A * 2 & r(A).\n\
   r(1).\n\
   r(2).\n"

let arms_queries =
  [ "p(X, Y)"; "(X is 2 & Y is 3)"; "(q(A, B) -> true ; A = 0)"; "\\+ p(1, 2)";
    "q(A, B), (X = A & Y is B + 1)" ]

let from_pool mix n =
  let pool = Server.Traffic.pool mix ~seed in
  Array.to_list (Array.sub pool 0 (min n (Array.length pool)))

(* (label, database source, queries) *)
let pools =
  [
    ("hot", Server.Traffic.database hot, from_pool hot max_int);
    ("churn", Server.Traffic.database churn, from_pool churn 200);
    ("arms", arms_src, arms_queries);
  ]

let keyed (label, _, queries) = List.mapi (fun i q -> (Printf.sprintf "%s/%d" label i, q)) queries

(* key -> (sequential digest, parallel digest) *)
let expected =
  [
    ("hot/0", "ef0100f42682b53d573548bec88e6a43", "dfa9ece4b0d880015ec001604abbaa5e");
    ("hot/1", "7cd3e0d8eb3c3275c6bc64651880d280", "54867a8e322a2662bb59d0af98d4497e");
    ("hot/2", "a3c4f9a65780e04a58b70b27c1579ce3", "5b1049231b2c5691d05899d8d904945e");
    ("hot/3", "12fa0d7a4a3057c626cb4b3fbf0e5428", "def7c6dcd19b52dea35d4852d448d148");
    ("hot/4", "aac41939bffc429d5ddcc3b4b785dbe3", "36439fe001ef55843ed1609f4040003e");
    ("hot/5", "49b6a8ceb0ca036d05bbad01f27f513b", "5d93bf62beffe38eb14fafd5e88c9bc1");
    ("hot/6", "577ecb53317c229e22dfe1da09481e8c", "559003326c9c2e4b0c088d511425c5e9");
    ("hot/7", "fffae9d3c1d4dbf556c8b07d482c2b38", "af2fe8c0745177d5430a13b355790d65");
    ("hot/8", "2e38e1bbe1c11f2285d6ef4f0482c95a", "594fc84f2aa0f1e74642c75dacd7d28f");
    ("hot/9", "bd5798ffade30819a23b5336cfa83c9a", "47202a73826558cb89f50a89edf8755f");
    ("hot/10", "a96a09c952411a0915fb45617c394b0c", "38f6677c470055c0ce42f0e87a25715f");
    ("hot/11", "168c7e03677c3c826f85de6c57350248", "d6bcd07c8a7113dc523763c133405547");
    ("hot/12", "be402430ba327b97669ec2b8f7be8361", "bab2e9214fc178ade76a54d7f9cc12fe");
    ("hot/13", "4d77de775d090e3c033ed03ef48f5458", "f313be311a188432cb453018bce89b49");
    ("hot/14", "c8ee332a0b15ab20931191f8cce227ef", "6e57905cd006769094695dbbad53c978");
    ("hot/15", "95ba4319692ebfdf787a4e151e5af069", "2526a421f29faed7a4509c17bd31b739");
    ("hot/16", "871260f8339432dc7e669e06e4ed8ced", "692b198989a5c7e63fb945af897f6a67");
    ("hot/17", "651872848353622fe29197657daf0f0f", "77d2ceb9f39b7209f0c9cb560c294acb");
    ("hot/18", "07b02c95dd16dbc18c0fdb05f6966450", "9f0650373bc21ed86119229812abf3ba");
    ("hot/19", "279ccc41cd2ac1b79e03a6c6b87f6dab", "b47f5708acb4921de046d8a7f87823db");
    ("hot/20", "9e483d46376b5356fcfd187b3d7ba060", "a80f8aec755874c45def7774c26afea1");
    ("hot/21", "2dec1c13af44985d8c67aa1149b7b74f", "42b6624d69abc3fb46e1d8fd24912e94");
    ("hot/22", "16b99c44b910d132c82415468fdef0d4", "f338630cd03154ccf01e01f5c22d4ea3");
    ("hot/23", "4fd03029dcae652b84471da193273df0", "6102d19a332dd1ec6ca3b49cdeec6fe0");
    ("hot/24", "3b320b123c712db3574ea2bb56e8a265", "966e30155b1aaff1246316cd101937c1");
    ("hot/25", "f907aa279eed214302e446e09a765a8e", "93ac52860d28bdf3066ca42ffec4140b");
    ("hot/26", "73033e8d007c6e679dd3f76020def530", "71439011e7472bb03d77ecbe41206456");
    ("hot/27", "3523d66c394f537d10a61306b794bcda", "b9b6d9f03bd9c4ec3b378afadc167c37");
    ("hot/28", "dbaa8c1da3f59bc8332ff9b8ed38e0e6", "a7fd69621b9d1c98b4245cfdc8a1827d");
    ("hot/29", "3f9604a2c193db172e3c9b4ea0cf0735", "c4a4b40578317f6c30b013c85fd7820e");
    ("hot/30", "b68e1f996b02869ef316aec61004b41b", "fa0029483d9f94e6542972f464efa4fb");
    ("hot/31", "9a4a458daba957fc70adf2cf5ccf9ef7", "175d8b5947b7b96c677060fae6fb1b9b");
    ("hot/32", "67b8ddf2f081900e73ad2a420ff68ecc", "a1a9c22b81f7b7226b38070664d5c14c");
    ("hot/33", "38459a08a2921b32e37451bd71114ecc", "e3c394b72b451330204f887292f5e47e");
    ("hot/34", "70f2274746897677eaa64cffaa7b21d4", "d0e35213de00292734defe50ab34efba");
    ("hot/35", "a173318a7a9bba703a640ebc25b5d1aa", "7ab585a24d3aa613ada9a4cf8a4dcaf5");
    ("hot/36", "8f694c4f589d87cc44365bb39137a5d9", "a7f9b46e26d55c64575137e82649723d");
    ("hot/37", "aa1ef8c2ba8a03e828653e50a51ead27", "bc63879b6f3e9d67bab58837bb569db5");
    ("hot/38", "e159727088454f1c4a3946e8dab2dc16", "8647e5bb3e1845a32d1edc177654af01");
    ("hot/39", "8fded4b9260fe63679beea4111c197aa", "cec13d3e60299311fdee1d0d0466cd97");
    ("hot/40", "c3ae2d582d480befa1a256626bda8d89", "cf7571bca8b5d29441fd8d2d594e6ec9");
    ("hot/41", "1f8736e682cd9e51213019e8c13898dc", "cab5f7d7d8f8677ad98b47ae5ab40926");
    ("hot/42", "18357ce09c2a3e4fd954d0786bd665f2", "a340f07e2c2bf17985da5ab1a4eec832");
    ("hot/43", "85dba9e3cf3a46ea8f153e983a8a0190", "3a44439ab1b8a01791fde26b85262549");
    ("hot/44", "57c303618a15757d45a6f378065da678", "329e6f247acbaef432f0e4ffd07b4a3d");
    ("hot/45", "15b9e7be061d624bf12f03bb2d937154", "1203b29efa97af38d4a8e360fa4a4c63");
    ("hot/46", "1733e9f8a8306ad24abe51db10318a20", "91d4bae0b32932ea6be1d76b17ec54a6");
    ("hot/47", "dd3d718759f46d89c227b6b84a37e569", "30c06df67c9b3e200a5345adad70ab10");
    ("hot/48", "39ed9b89f904e36fbac58ea27d79379d", "4f5d92be3e3b03a933502f9e878d7ac3");
    ("hot/49", "b83c545a84e056a01ed1cde8fbb7d474", "e9b27a1ab12196f52a748b296daf4f8b");
    ("hot/50", "77baf044865b073eab049797e9201161", "ce8241af5410e44ff18f5f736f3626df");
    ("hot/51", "860d54f914d8fd45a6d2d6c50756d030", "cc8bff16f51ad252df778bc044a4f280");
    ("hot/52", "9152b1feb3e67e5888f1b0e6b5fe64b3", "c01e073e1b42b560ae0f087dface5f41");
    ("hot/53", "712c5905d0123c48c952338e3db25a1a", "316027ebf561b7b6dce54dd5d8ad6472");
    ("hot/54", "32690c4962ccb6ef052241fa8ffebcda", "873500bcd972f072f4675b3aa3ae3c32");
    ("hot/55", "a6dcdaa0e8f4f9e54f40872894cb9bd3", "fb1772a9158f161aaf799aecd05dea30");
    ("hot/56", "3c7e68040b9405ce321bf6a37053ce6a", "17da03da2da8b1b742ad5df549bfe06d");
    ("hot/57", "f773b2d1e42e94152b0a918603484e12", "89212bec8bc069502304c8fbc78fc9d4");
    ("hot/58", "29252930e82602901fc2718528a36eed", "876d0ef793541c9e4f5b6ac00b2e5bc8");
    ("hot/59", "ecf1ae0fd525796c0b0ec67a4c031c60", "249229d59271192396ab66b742860faf");
    ("hot/60", "6e705bf4be621a63541c459c8400017e", "189f9f25666ad9b067135e7d20dd846f");
    ("hot/61", "6eb239aee4a969bbd56f1030d34638f5", "e796ce891d4f6f86f01be4f59193d6ac");
    ("hot/62", "d22be78e05e176e75a2666765e9adbcb", "527f17183b026a04652af64e46af4afc");
    ("hot/63", "8e2f3a80c707403c92942919afdaf7e6", "be13c8274c846b8a92f755a5b09e019b");
    ("hot/64", "9398dd787a7fc1b2cc29efbd68064bd1", "c77554c454a5ac9a56de825525820c77");
    ("hot/65", "195814e85f4cc0c8ef32367ce9be0da6", "852bdff77469f58c4e83ac4635db576f");
    ("hot/66", "30815819ad87c5ac2ef9cc4a81150297", "86d15a4eebabfcdfaf1f32f27548b170");
    ("hot/67", "5f67da25150b55c6d139c207223f43d4", "0dddc0e2dbd087c22a94f4d4973acf00");
    ("hot/68", "e9bb79da5d4abfffcb60c8b28f5c3ae7", "3dc4adf68839b8ea8ef39bc79f855e07");
    ("hot/69", "ca2566cd60b00d0092d81986632a9720", "0b5f8f1b2a4ca8672bf4483f6473cfc7");
    ("hot/70", "94ff83af5a561f764ef4ed699bd6038c", "883410f79d95a9c6e711a50a6215bde7");
    ("hot/71", "afb954f67f1368de39da7c4c25cf1870", "b530d022ece64ad9a26a01340ddf7b34");
    ("churn/0", "ef0100f42682b53d573548bec88e6a43", "dfa9ece4b0d880015ec001604abbaa5e");
    ("churn/1", "7cd3e0d8eb3c3275c6bc64651880d280", "54867a8e322a2662bb59d0af98d4497e");
    ("churn/2", "a3c4f9a65780e04a58b70b27c1579ce3", "5b1049231b2c5691d05899d8d904945e");
    ("churn/3", "12fa0d7a4a3057c626cb4b3fbf0e5428", "def7c6dcd19b52dea35d4852d448d148");
    ("churn/4", "aac41939bffc429d5ddcc3b4b785dbe3", "36439fe001ef55843ed1609f4040003e");
    ("churn/5", "49b6a8ceb0ca036d05bbad01f27f513b", "5d93bf62beffe38eb14fafd5e88c9bc1");
    ("churn/6", "577ecb53317c229e22dfe1da09481e8c", "559003326c9c2e4b0c088d511425c5e9");
    ("churn/7", "fffae9d3c1d4dbf556c8b07d482c2b38", "af2fe8c0745177d5430a13b355790d65");
    ("churn/8", "2e38e1bbe1c11f2285d6ef4f0482c95a", "594fc84f2aa0f1e74642c75dacd7d28f");
    ("churn/9", "bd5798ffade30819a23b5336cfa83c9a", "47202a73826558cb89f50a89edf8755f");
    ("churn/10", "a96a09c952411a0915fb45617c394b0c", "38f6677c470055c0ce42f0e87a25715f");
    ("churn/11", "168c7e03677c3c826f85de6c57350248", "d6bcd07c8a7113dc523763c133405547");
    ("churn/12", "be402430ba327b97669ec2b8f7be8361", "bab2e9214fc178ade76a54d7f9cc12fe");
    ("churn/13", "4d77de775d090e3c033ed03ef48f5458", "f313be311a188432cb453018bce89b49");
    ("churn/14", "c8ee332a0b15ab20931191f8cce227ef", "6e57905cd006769094695dbbad53c978");
    ("churn/15", "95ba4319692ebfdf787a4e151e5af069", "2526a421f29faed7a4509c17bd31b739");
    ("churn/16", "871260f8339432dc7e669e06e4ed8ced", "692b198989a5c7e63fb945af897f6a67");
    ("churn/17", "651872848353622fe29197657daf0f0f", "77d2ceb9f39b7209f0c9cb560c294acb");
    ("churn/18", "07b02c95dd16dbc18c0fdb05f6966450", "9f0650373bc21ed86119229812abf3ba");
    ("churn/19", "279ccc41cd2ac1b79e03a6c6b87f6dab", "b47f5708acb4921de046d8a7f87823db");
    ("churn/20", "9e483d46376b5356fcfd187b3d7ba060", "a80f8aec755874c45def7774c26afea1");
    ("churn/21", "2dec1c13af44985d8c67aa1149b7b74f", "42b6624d69abc3fb46e1d8fd24912e94");
    ("churn/22", "16b99c44b910d132c82415468fdef0d4", "f338630cd03154ccf01e01f5c22d4ea3");
    ("churn/23", "4fd03029dcae652b84471da193273df0", "6102d19a332dd1ec6ca3b49cdeec6fe0");
    ("churn/24", "3b320b123c712db3574ea2bb56e8a265", "966e30155b1aaff1246316cd101937c1");
    ("churn/25", "f907aa279eed214302e446e09a765a8e", "93ac52860d28bdf3066ca42ffec4140b");
    ("churn/26", "73033e8d007c6e679dd3f76020def530", "71439011e7472bb03d77ecbe41206456");
    ("churn/27", "3523d66c394f537d10a61306b794bcda", "b9b6d9f03bd9c4ec3b378afadc167c37");
    ("churn/28", "dbaa8c1da3f59bc8332ff9b8ed38e0e6", "a7fd69621b9d1c98b4245cfdc8a1827d");
    ("churn/29", "3f9604a2c193db172e3c9b4ea0cf0735", "c4a4b40578317f6c30b013c85fd7820e");
    ("churn/30", "b68e1f996b02869ef316aec61004b41b", "fa0029483d9f94e6542972f464efa4fb");
    ("churn/31", "9a4a458daba957fc70adf2cf5ccf9ef7", "175d8b5947b7b96c677060fae6fb1b9b");
    ("churn/32", "67b8ddf2f081900e73ad2a420ff68ecc", "a1a9c22b81f7b7226b38070664d5c14c");
    ("churn/33", "38459a08a2921b32e37451bd71114ecc", "e3c394b72b451330204f887292f5e47e");
    ("churn/34", "70f2274746897677eaa64cffaa7b21d4", "d0e35213de00292734defe50ab34efba");
    ("churn/35", "a173318a7a9bba703a640ebc25b5d1aa", "7ab585a24d3aa613ada9a4cf8a4dcaf5");
    ("churn/36", "8f694c4f589d87cc44365bb39137a5d9", "a7f9b46e26d55c64575137e82649723d");
    ("churn/37", "aa1ef8c2ba8a03e828653e50a51ead27", "bc63879b6f3e9d67bab58837bb569db5");
    ("churn/38", "e159727088454f1c4a3946e8dab2dc16", "8647e5bb3e1845a32d1edc177654af01");
    ("churn/39", "8fded4b9260fe63679beea4111c197aa", "cec13d3e60299311fdee1d0d0466cd97");
    ("churn/40", "c3ae2d582d480befa1a256626bda8d89", "cf7571bca8b5d29441fd8d2d594e6ec9");
    ("churn/41", "1f8736e682cd9e51213019e8c13898dc", "cab5f7d7d8f8677ad98b47ae5ab40926");
    ("churn/42", "18357ce09c2a3e4fd954d0786bd665f2", "a340f07e2c2bf17985da5ab1a4eec832");
    ("churn/43", "85dba9e3cf3a46ea8f153e983a8a0190", "3a44439ab1b8a01791fde26b85262549");
    ("churn/44", "57c303618a15757d45a6f378065da678", "329e6f247acbaef432f0e4ffd07b4a3d");
    ("churn/45", "15b9e7be061d624bf12f03bb2d937154", "1203b29efa97af38d4a8e360fa4a4c63");
    ("churn/46", "1733e9f8a8306ad24abe51db10318a20", "91d4bae0b32932ea6be1d76b17ec54a6");
    ("churn/47", "dd3d718759f46d89c227b6b84a37e569", "30c06df67c9b3e200a5345adad70ab10");
    ("churn/48", "39ed9b89f904e36fbac58ea27d79379d", "4f5d92be3e3b03a933502f9e878d7ac3");
    ("churn/49", "b83c545a84e056a01ed1cde8fbb7d474", "e9b27a1ab12196f52a748b296daf4f8b");
    ("churn/50", "79f10a4b35e195e5d0b99385cf1283f3", "c0ad8ea8bc8f32edfee1a10f5cfe365a");
    ("churn/51", "efa465d3274cdf7e6a9cf14efda42473", "c31cf75800a3cc857600a83b09abc6e8");
    ("churn/52", "77baf044865b073eab049797e9201161", "ce8241af5410e44ff18f5f736f3626df");
    ("churn/53", "860d54f914d8fd45a6d2d6c50756d030", "cc8bff16f51ad252df778bc044a4f280");
    ("churn/54", "34ea67e8253c9e2c36045cf7f23e150c", "17fd5233bf4a892cd296c2f2c2a7d971");
    ("churn/55", "df542a42c29c7444e375fb6c3a614e7c", "f844fc30b98e441bcf6c73cdd2c14492");
    ("churn/56", "9152b1feb3e67e5888f1b0e6b5fe64b3", "c01e073e1b42b560ae0f087dface5f41");
    ("churn/57", "712c5905d0123c48c952338e3db25a1a", "316027ebf561b7b6dce54dd5d8ad6472");
    ("churn/58", "8e450ceed2742716e61eac01b7934218", "77006d66ef339ced2c3f39a748eaf913");
    ("churn/59", "d12bb76eb3923a3d0c169f36c74984e6", "2342863b952c555d9441941b1f8ea616");
    ("churn/60", "32690c4962ccb6ef052241fa8ffebcda", "873500bcd972f072f4675b3aa3ae3c32");
    ("churn/61", "a6dcdaa0e8f4f9e54f40872894cb9bd3", "fb1772a9158f161aaf799aecd05dea30");
    ("churn/62", "02434c94f1ad1315d9992ed918216e4e", "65fd730f42a933f4e58aa75a78c996a1");
    ("churn/63", "b093fb96490e7b38fc1d3722042fb1bb", "d4687494326eb2635996880af743e306");
    ("churn/64", "3c7e68040b9405ce321bf6a37053ce6a", "17da03da2da8b1b742ad5df549bfe06d");
    ("churn/65", "f773b2d1e42e94152b0a918603484e12", "89212bec8bc069502304c8fbc78fc9d4");
    ("churn/66", "30fe69088d3ea5dff9ab22901b3080d6", "9b56a89b08a47e2b0b410bdb7dbb7516");
    ("churn/67", "9020b15a0ec93e2d42d8adacbf5b83a2", "0bf99565430745af1951698d00c598de");
    ("churn/68", "29252930e82602901fc2718528a36eed", "876d0ef793541c9e4f5b6ac00b2e5bc8");
    ("churn/69", "ecf1ae0fd525796c0b0ec67a4c031c60", "249229d59271192396ab66b742860faf");
    ("churn/70", "1c868665aa240192daba52c66e5fbd83", "c0fb0f3358a64ef3c4cb3d6357a757a6");
    ("churn/71", "5cbbc89e583391d87f7caf52ee0466ee", "3697337168c67e664e9df084d70e2990");
    ("churn/72", "6e705bf4be621a63541c459c8400017e", "189f9f25666ad9b067135e7d20dd846f");
    ("churn/73", "6eb239aee4a969bbd56f1030d34638f5", "e796ce891d4f6f86f01be4f59193d6ac");
    ("churn/74", "0e47a6ada8e275450245169578fcd42a", "084572a7126d626d918523f14f4ba198");
    ("churn/75", "4a431849d98c95e66f9e492b291bfa07", "ae23158adde4237671996b7f20e3a5e5");
    ("churn/76", "d22be78e05e176e75a2666765e9adbcb", "527f17183b026a04652af64e46af4afc");
    ("churn/77", "8e2f3a80c707403c92942919afdaf7e6", "be13c8274c846b8a92f755a5b09e019b");
    ("churn/78", "ce446ec1f48e5225e30ce56501bacca2", "9f97be653c9430ced9dd441e6a17af53");
    ("churn/79", "4e00540d0533cade8f1f50580a206786", "97449b0d983ed8543773b323b1608d27");
    ("churn/80", "9398dd787a7fc1b2cc29efbd68064bd1", "c77554c454a5ac9a56de825525820c77");
    ("churn/81", "195814e85f4cc0c8ef32367ce9be0da6", "852bdff77469f58c4e83ac4635db576f");
    ("churn/82", "ebc8202d74f42a67e2e8d881ff557c71", "c18f7530a75ca597b691b7d2ff924a2a");
    ("churn/83", "5dab4580f39845dd8b2656721dcef4ad", "809dcfb29b34b9d94808ba6b427be5b3");
    ("churn/84", "30815819ad87c5ac2ef9cc4a81150297", "86d15a4eebabfcdfaf1f32f27548b170");
    ("churn/85", "5f67da25150b55c6d139c207223f43d4", "0dddc0e2dbd087c22a94f4d4973acf00");
    ("churn/86", "b5a3fb2ae6717f2c90828125e3ccea83", "4649dcbc63a3b1983435209b34bf4fb4");
    ("churn/87", "ac36242368cce065c2df3096c0dec445", "f7290a0e3f2c0085ca38f9c0cb901b8a");
    ("churn/88", "e9bb79da5d4abfffcb60c8b28f5c3ae7", "3dc4adf68839b8ea8ef39bc79f855e07");
    ("churn/89", "ca2566cd60b00d0092d81986632a9720", "0b5f8f1b2a4ca8672bf4483f6473cfc7");
    ("churn/90", "2ba81ba83c73997134db188b965edba8", "90e4bc905268e59debb8d684edffbab6");
    ("churn/91", "fd0cd0e03ced6c4b2d8ee2aae5401fc6", "1ce9c5b3a47eaa84c8ecbeb199466836");
    ("churn/92", "94ff83af5a561f764ef4ed699bd6038c", "883410f79d95a9c6e711a50a6215bde7");
    ("churn/93", "afb954f67f1368de39da7c4c25cf1870", "b530d022ece64ad9a26a01340ddf7b34");
    ("churn/94", "728204eb3474db85e15112f24a7f2e5b", "990b1bbe6b425027d13a0fccabdd849c");
    ("churn/95", "da1774e27aa6e7f16ec5e0d1369f12e2", "54a053a4f6df7abfcebfd30dd8df42a6");
    ("churn/96", "bcfac16ee7a964333831f20820e1407a", "8eae2da9a4884819d04319b70863a7ce");
    ("churn/97", "8021e68cd7e2f7e8eb9d185a4b4a138e", "e48fd282b5f28de5842678c301281bdc");
    ("churn/98", "ae06fef62f13a3af510f5c8c76133d51", "fa8e080ed04a6cc7eac2c20f48df58d3");
    ("churn/99", "8483dc29ac11dce1e2f7d370f51a237a", "54929b11554871e5f4e53b82d85e8454");
    ("churn/100", "0ad161d324570bdb62509f96df08e225", "46ea0889f05f8db9fd67ce512c83dd04");
    ("churn/101", "c6e94964f6d065a204846ed12cbe7a88", "bd1292704ed8a4ce415c4009fda35e4b");
    ("churn/102", "755759030e2b0c4aabc52070b6ab8d30", "a927c9ea9edcb48fea27a6afa03b865e");
    ("churn/103", "37e9836db8f7fa9065628128a61087ea", "459df0ec430feea5f907f63d8a977183");
    ("churn/104", "a0b9e9c684c496047def31ddd3ea7002", "ab89d1c400feb304515ccca9986d29f2");
    ("churn/105", "d1b10fb6d81965ca7612e44c87be062b", "306812a600d1284896a47d66250f26e8");
    ("churn/106", "dbace6b65ba66864902218a12673b5f5", "b0ee67e81a09180bb30facd92efb69e6");
    ("churn/107", "51153b6f80c250221f34b78922cec625", "24d635360f2e1d69afb09d806346481f");
    ("churn/108", "8d010cd9678929ccf13785a9396ccbd3", "1830691e9aca771118ab3c8139cdd63b");
    ("churn/109", "b1eb292a703068c96a08ca7be5358fa1", "f1cf87e62863e0ee99371f753b5013ac");
    ("churn/110", "6e4ccfdd630ce496bf3bf6d20fd9de93", "18fa054273fd6c6d33f0125b42f4d6ae");
    ("churn/111", "c42a96d241135980e72b5a44ce2ee28f", "6089e44b4342577df330fe1185ca2885");
    ("churn/112", "5690e49247ec4212565074ce7f8279e5", "88b5c7f350ce91fbf9c527e256c9afed");
    ("churn/113", "f8a9c22e2902b9c5959f5f9d5c5c7229", "a5665a70f299e3ff03cb007c19199ff5");
    ("churn/114", "6f7675c1f2b4f273592429921221d0bb", "e49ae91022139c77a3f8ac150ffa4c7b");
    ("churn/115", "6ad358726f61b903291e40f6319d58de", "0c0815945d7e5ed90f729400313220a4");
    ("churn/116", "e2197d52ac0ecb1eb662d4fa3527787f", "d49019053ec50b8a56f3069a91cfbf73");
    ("churn/117", "bacb3a25bae5b1ddbf661e866481d218", "4b7ec6052c8986168ecbe66fe1f5614e");
    ("churn/118", "912b3355daa095ca80d8904f8653af63", "7cb1862723412ae865f15064d5ebc1d5");
    ("churn/119", "a321a33cd4ea6658a5406535d82dad7a", "b8975aa53da891e80f3e273aea49dae8");
    ("churn/120", "d5b0d01804cb4335f5098093c9b36d9d", "04538812fbec1972bcbf7d6987d4436c");
    ("churn/121", "8288be3266a16435e49579b914e0b7ce", "9843757da9fd0dd3834e8e39cecf3af4");
    ("churn/122", "df1c7b96cc7933327243617ec340227b", "ef314c9960e2e26c318935674964f895");
    ("churn/123", "7635106235457602e24a2d0c87e18f56", "bf916c0b06b646dc2c3c2bf6db1feafb");
    ("churn/124", "bd6307c42ae3be9ac8151f5250ac294b", "393a3b8a9ad9c0ecd43b7fb131ff2752");
    ("churn/125", "2b9161aa1ef31a384732017cf788cfe8", "5a45981263547f9c88933d1a06830fea");
    ("churn/126", "f1ee992c0d4967f75ae28af318e98682", "dc8c25d2a64cf3871b3ddfadfd1fb6df");
    ("churn/127", "a0e2f2a2965859c29a96d2ba171bfdbd", "9f74deba50efb83bacf71fb75ade0a5d");
    ("churn/128", "7d74fdc8460011c900f8712916f46330", "65d67d41629f0f24a95e087f88c0cb1a");
    ("churn/129", "5c0ced9c96033ed1542ea9c9eb8fc7b7", "fd5fcff7703c0678f46399bc62ca8cf6");
    ("churn/130", "2eaadcd06ed1361c045a525416207e47", "594832c145ea8d9c42f5f476a1953758");
    ("churn/131", "31a1561dae7ecb117f301c7d807cfaf0", "716b2e229937136e19486582de086d86");
    ("churn/132", "fc8c30aca80472ac75889b44189b2b01", "af35bbd314c40328517ab5988d9cc987");
    ("churn/133", "f6cd79b31da56114287e249a0aa3e8ab", "229898f0f25102c8901643a6e88c0c1f");
    ("churn/134", "d9b44362566dbeb8e4b828fff4600076", "51d81ea65f1e69de8d01645a166cb476");
    ("churn/135", "907b023e392bc981761b2df0ec0a3997", "caef649bb0f94b3df6160caaa66de0ad");
    ("churn/136", "e203d9b4d8312c4f4b389c714d9294ef", "2901ad1dec6f53558d3d3dd31254d295");
    ("churn/137", "ee1494c138e933d8185b71e0d0cbc50d", "3d440ba25d4dada0073371bd3c421840");
    ("churn/138", "14f2c908b3397b85fa7a1ba229416f18", "d4e645415db06132382cb82110275e3a");
    ("churn/139", "670437440e460332c683416c2bb5ea11", "1f7d13dc1e86dd5d8ea8e5a122bd2a27");
    ("churn/140", "ba9125e397fc1760330eed52a4f24121", "37c7452add4f3933818f48fe829de3f1");
    ("churn/141", "3b9acaa160a496d890f88ee8c313ab90", "62413a31bfa5c70953007a444bde5246");
    ("churn/142", "5629f754a19da3d86715e84d736b88b0", "a2442c44ceab129d2b6d0dfafc7b9828");
    ("churn/143", "f4800e4c75cf44f68659f38a7efd150e", "c87201dd18c77ec3b1ebe53231aa5a95");
    ("churn/144", "90402170caee9f55841f8d5559ce071f", "11844eb62e1199620ea5e088a428c753");
    ("churn/145", "eae5e2041e18b60b96953cdd9790e64e", "275677c836332caf7fa709bf08d1e5c3");
    ("churn/146", "c12f32354548eea185c75c19782033ae", "6dce3235dd8adc369eb0c4ee27e68596");
    ("churn/147", "47825c5aa087d8eb7902d4db023326d5", "998bbbe44d75c8c8941c39d983b3f9df");
    ("churn/148", "bdb0abbf9dfff1a467c50f14ba5bd254", "7b06ac83e23d82b94f253cce3c45f9e6");
    ("churn/149", "1b0b6ba622ebe5f2dbde5cfadfc292d4", "294ef8b6fd2082468140b3900e82cd6d");
    ("churn/150", "93d2a20e5d0e37e95a64be66778b9fcf", "c1d956618a233fed18fed7ec16ddb8a4");
    ("churn/151", "d9f8378c44d5b81ade89301396991805", "60ba549eeb720de5c2b9dbdf7c85ded4");
    ("churn/152", "ad41aae714e95407497721c7a75b945c", "076f1093d4bc7a83280e65296b3095af");
    ("churn/153", "5ca8eccabfc82d542f9381234caae97f", "b9a78839f1b7a6fff4a2a3f00ee1dba3");
    ("churn/154", "fe9183bd953c6e7acfcbd73225f7142b", "89056d57f15827f3df44df9ef5493813");
    ("churn/155", "621f71f88c77797be9817ac00b9491a9", "69c7294cf0ead1897903ec5cabeca79f");
    ("churn/156", "d5a7cdfec04549484cd1cdd62875e52a", "4eb466ea814f4e39aca9f8d537630973");
    ("churn/157", "a2083ae99e2971f38607ddce5a7c8e5d", "0bf3a632a2555c97c64572613c35d656");
    ("churn/158", "b1c22594d5496d8c691642a216b46cc3", "c398eea5b01603ee671014cd5908bf13");
    ("churn/159", "3109bc88e2321a6de1d1f8773942314a", "d06667117423fdf90506c53856173785");
    ("churn/160", "e383cb324ca28db17702aec389baa202", "cda457cee7a53e6589a5481b507763eb");
    ("churn/161", "8f33b0e7b886930656a8a7f1a9fb8f4c", "84c38d6fb7761fd3cc30825c860090e3");
    ("churn/162", "4ce36e5b1478e3a6b1164c6ecd10689f", "e0eacbc9ac746e953840a7724391cb9f");
    ("churn/163", "0019677fa5908e11896a4101737983fe", "46079d2dc29cbd5d36f098fb9118a38a");
    ("churn/164", "0aa199bc604ca9f8acd65d28fb829fac", "254975d791116c5a202affec004e139f");
    ("churn/165", "c61c05ee41c00aa2f6664977c81d7778", "bf51c7ea4e399284101067d7771952bf");
    ("churn/166", "7d3a7f69cafdfd21116c38c15262e297", "e0c986f7ae786b78204436079ff4cb7a");
    ("churn/167", "43858f2defe796bc24ab352997953d6a", "ae58f1ef9a2970d925a434b3c50d08aa");
    ("churn/168", "52fa68e0dc7b48f19ff88162dae45c97", "f7a37f2bf03904f61f341b363edd9439");
    ("churn/169", "0cf51caf1e71cacc457ef81ccbf532f0", "93d161687558fb6d900052e16c2b1a82");
    ("churn/170", "183cec89915fffa1f9d6be7befa8e078", "016ac94e6ba40b9bc9bf2af660ee4177");
    ("churn/171", "197a577d64773325d3b02d92a2a380e9", "11ae2e106159fb67d65a56f678651ba7");
    ("churn/172", "c1652fa0b1ab607ca39a52737bfa7fe9", "9b9487f837ad75506753b6e33daa8eb1");
    ("churn/173", "c22d05d8cea7ebe1120c8edab2fd547c", "90dccabdf89937a18149f66f60208759");
    ("churn/174", "b9b9c11a0663d9fb9f831cca9ee81365", "2368096706653cfb0a2035b075895480");
    ("churn/175", "c227def851c7181b4e8c8c177967a890", "71b33ea191335b269d11ef62ee7fa8da");
    ("churn/176", "cdd9cb70ae99c405e1a0ee76f3f39a67", "efcfe65c38b637ef29fd0c19db26c8cc");
    ("churn/177", "1e8c557311c97172cf5a4af58f57e8dc", "3b6ce843225c8a41488cbd9ffd373227");
    ("churn/178", "9db31042cb343f0e99c6f4238519ac42", "c0ccbc46e64a476c2b06284f28ec43d6");
    ("churn/179", "41be6f1c205ce9d8def8cdf3b434e105", "ab252eda95847ff03eb451d0f944f01a");
    ("churn/180", "0b62d9999c6730f0937fa9a553c932a8", "72a3734b76f4a84996520427a96de000");
    ("churn/181", "af1569e6da17e45277e9c5f46882d3b9", "8de30b11cdc50085d57f60bad3f1c950");
    ("churn/182", "62fccbbb4381f27841533c5c54704a89", "74de7b39afb1e052e0d54462406b340a");
    ("churn/183", "007efd92b30513648f499aa1c1c23959", "cd5afdc835caf035bc75cd2784ce4828");
    ("churn/184", "fe5f6cfd990834e354a47c4cf65a67ef", "3f66d2e6ea79b3ba3905c6e16713e598");
    ("churn/185", "23ed08dbef39a9c44c30dbcbbbdd301e", "1771086caac9cfdf0ed4e3a089d247d6");
    ("churn/186", "e7213084b68e3a5f9a7a27aab960a335", "cb7efd59591e6faaef838774e43835b9");
    ("churn/187", "4c7c187958f6fd86361aac507f858bd5", "5d7dc9a34e8ed34af7d189b862eda904");
    ("churn/188", "b9072905cedda9bc828914a748f4e4e5", "59a18ce909267b1471457f2a6d69994d");
    ("churn/189", "e8d0771cd79f4c108ea51fcc73451839", "5b628610ebc902d0dc686b15fe9b61d9");
    ("churn/190", "6307b213ef73d0ead6121f120efb92e4", "4596daf6de427040ad08f1782bd29a6f");
    ("churn/191", "db85f2f05bd771e28feaebe57f5cd9fa", "db78312103c7c68f76f9d9cddcb237f9");
    ("churn/192", "ab3f5961844491a92ddeb8d469785aab", "c466671c3b64bd20a32747158a3ad4b4");
    ("churn/193", "0820fe0e87df90f8e0f3c3a71f24a738", "d16c55cd7c0c163a61ba875690e58d02");
    ("churn/194", "577753604f2f3dda1c2d6108f0bdc2e0", "465c6434523d2d092fac39d1b9ffadde");
    ("churn/195", "d97c9f9747132455074203e98bc5648d", "4a37074e0bf66c2f0790541d5603e607");
    ("churn/196", "2f38f765f5612742f55074c9e23d1497", "efb146885501c424a9900b60061ff8ab");
    ("churn/197", "50b850b923fdde660da2c99500ea5b9b", "0e602009d54ec6c3fb427abd9e394ae8");
    ("churn/198", "1cf3de8b9ceaeb20e6b8d552e74e1e6d", "a4a326f495e06a078ac6316a1b0c264a");
    ("churn/199", "b5432b0c4ae215cd68a0c03b09a1706c", "ce464a980311c290aaa3e9cdb7c28466");
    ("arms/0", "857fdf3407832aceb1900dfbda893bbc", "35f908cf9b8e86a8748f0f00a1a1e071");
    ("arms/1", "35756ae67c76aad6b038279cb51b4bbf", "14ae338a0a89d97d2b02115a7a038a60");
    ("arms/2", "98f9a2d6469cf96309150230a54f4607", "30311ee31b90baba58fb502c95816cd5");
    ("arms/3", "b83a1525101e8ae97428aa59842eff93", "227904ced9e861ca6d5a2144bcf67a25");
    ("arms/4", "a2b816e501ea755c329949a291ee3149", "cab1fff4b48eb52c7374457df3d99386");
  ]

let check ~what got =
  let bad =
    List.filter
      (fun (k, s, p) ->
        match List.find_opt (fun (k', _, _) -> k' = k) expected with
        | Some (_, s', p') -> s <> s' || p <> p'
        | None -> true)
      got
  in
  if List.length got <> List.length expected || bad <> [] then
    Alcotest.failf "%s: %d of %d listings moved:\n%s" what (List.length bad)
      (List.length got)
      (String.concat "\n"
         (List.map (fun (k, s, p) -> Printf.sprintf "    (%S, %S, %S);" k s p) bad))

(* One image per pool and mode with every query compiled onto it in
   turn (an image a query left changed would move the later digests),
   the same with each program released before the next query (which
   then compiles onto the released workspace), and every query through
   [of_database] on a fresh parse. *)
let test_listings () =
  let compile_all compile =
    List.concat_map
      (fun ((_, src, _) as pool) ->
        let seq = compile false src and par = compile true src in
        List.map (fun (k, query) -> (k, seq query, par query)) (keyed pool))
      pools
  in
  let on_image ~release parallel src =
    let image = Wam.Program.image ~parallel (Prolog.Database.of_string src) in
    fun query ->
      let p = with_query image query in
      let d = digest p in
      if release then Wam.Program.release p;
      d
  in
  check ~what:"with_query" (compile_all (on_image ~release:false));
  check ~what:"with_query, each released" (compile_all (on_image ~release:true));
  check ~what:"of_database"
    (compile_all (fun parallel src query ->
         digest (Wam.Program.of_database ~parallel (Prolog.Database.of_string src) ~query ())))

let count name =
  let rec go i = match name i with _ -> go (i + 1) | exception Invalid_argument _ -> i in
  go 0

(* What a whole-program compile of the database alone holds: the code
   length, atom and functor counts and predicate count a released
   workspace must be cut back to.  (The source has no builtin arms, so
   the image emits exactly this code.) *)
let sizes_of (code, symbols, db) =
  ( Wam.Code.length code,
    count (Wam.Symbols.atom_name symbols),
    count (Wam.Symbols.spec_string symbols),
    Prolog.Database.predicate_count db )

(* [release] cuts a workspace back to its image: the query's code and
   auxiliary predicates go, with every symbol interned by its compile
   and by its run (functor/3 and =../2 intern at run time); the next
   query compiles onto the same tables. *)
let test_release_cuts_back () =
  let src = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n" in
  let db () = Prolog.Database.of_string src in
  let whole =
    let symbols = Wam.Symbols.create () and db = db () in
    (Wam.Compile.compile_db ~parallel:false symbols db, symbols, db)
  in
  let image = Wam.Program.image ~parallel:false (db ()) in
  let p =
    with_query image "(app(X, Y, [a, b]) ; X = none), functor(T, fresh_name, 3), U =.. [other_name, T]"
  in
  (match Wam.Seq.run_all ~max_solutions:1 p with
  | [ _ ], m -> Wam.Machine.release m
  | _ -> Alcotest.fail "the query must succeed");
  let grown = sizes_of (p.Wam.Program.code, p.Wam.Program.symbols, p.Wam.Program.db) in
  Alcotest.(check bool) "the query grew every table" true
    (let c, a, f, n = grown and c0, a0, f0, n0 = sizes_of whole in
     c > c0 && a > a0 && f > f0 && n > n0);
  Wam.Program.release p;
  let c0, a0, f0, n0 = sizes_of whole in
  let c, a, f, n = sizes_of (p.Wam.Program.code, p.Wam.Program.symbols, p.Wam.Program.db) in
  Alcotest.(check (list int)) "code, atoms, functors, predicates as the image's"
    [ c0; a0; f0; n0 ] [ c; a; f; n ];
  let q = with_query image "app(X, Y, [c])" in
  Alcotest.(check bool) "the next query reuses the workspace" true
    (q.Wam.Program.code == p.Wam.Program.code && q.Wam.Program.symbols == p.Wam.Program.symbols);
  Alcotest.(check string) "and compiles as on a fresh image"
    (digest (Wam.Program.of_database ~parallel:false (db ()) ~query:"app(X, Y, [c])" ()))
    (digest q);
  (* a query whose clause joins an image predicate (here a database
     that defines $query/1 itself) leaves a workspace that cannot be
     cut back: it is dropped, and the next query gets a fresh copy *)
  let src = src ^ "'$query'(X) :- X = 1.\n" in
  let image = Wam.Program.image ~parallel:false (Prolog.Database.of_string src) in
  let p = with_query image "X = 2" in
  Wam.Program.release p;
  let q = with_query image "app(X, Y, [c])" in
  Alcotest.(check bool) "a workspace that cannot be cut back is dropped" false
    (q.Wam.Program.code == p.Wam.Program.code);
  Alcotest.(check string) "the next query compiles as on a fresh image"
    (digest
       (Wam.Program.of_database ~parallel:false (Prolog.Database.of_string src)
          ~query:"app(X, Y, [c])" ()))
    (digest q)

(* One image per mode, shared by two domains that each run 50 pool
   queries on it: the answers equal one domain's, and a probe query
   with a lifted disjunction compiles onto the image as it did
   before. *)
let test_image_shared () =
  let db () = Prolog.Database.of_string (Server.Traffic.database churn) in
  let pool = Array.sub (Server.Traffic.pool churn ~seed) 0 100 in
  List.iter
    (fun (mode, parallel, run) ->
      let image = Wam.Program.image ~parallel (db ()) in
      let probe () = digest (with_query image "(X = 1 ; X = 2)") in
      let before = probe () in
      let answers qs = Array.map (fun query -> run (with_query image query)) qs in
      let one = answers pool in
      let two = Engine.Pool.map ~jobs:2 (fun i -> answers (Array.sub pool (50 * i) 50)) [| 0; 1 |] in
      Alcotest.(check bool) (mode ^ ": two domains answer as one") true
        (Array.append two.(0) two.(1) = one);
      Alcotest.(check string) (mode ^ ": image unchanged") before (probe ()))
    [
      ("sequential", false, fun prog -> fst (Wam.Seq.run_all ~max_solutions:1 prog));
      ( "parallel",
        true,
        fun prog ->
          match fst (Rapwam.Sim.run ~n_workers:4 prog) with
          | Wam.Seq.Success bindings -> [ bindings ]
          | Wam.Seq.Failure -> [] );
    ]

let suite =
  [
    Alcotest.test_case "one image shared by two domains" `Quick test_image_shared;
    Alcotest.test_case "with_query and of_database reproduce the pinned listings" `Quick
      test_listings;
    Alcotest.test_case "release cuts a workspace back to its image" `Quick
      test_release_cuts_back;
  ]
