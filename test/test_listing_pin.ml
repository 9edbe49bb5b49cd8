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
  let listing = Format.asprintf "@[<v>%a@]" Wam.Program.pp_listing p in
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
    ("hot/0", "4df43e12db573c4e702965d344bbc437", "24f48d0953a5529474da6115129c92d1");
    ("hot/1", "d89fbbc6b02691a475eae73323c3de89", "c51859f0ad782a0abef11b9f6045d618");
    ("hot/2", "f26cec2d8f6d90edca535614ad91b82d", "43255bd2bb106a728a5d7f48af1ac97b");
    ("hot/3", "00f67a030eb2b9036f366d6267705b24", "c527d2a023be12937a0dc920b42db22f");
    ("hot/4", "fd43420de37d2895e67ad69e101c87f1", "307c672573f2f44c110bccbd51f43138");
    ("hot/5", "38e85ef48c0e6fe95990d40a25217f95", "399b38d3db46fbdd6169a68ae61c20b4");
    ("hot/6", "ba5542cdd99c0557810bae0b518930b5", "067d9c679ff54f268681c620ffef0ad3");
    ("hot/7", "5ef0567aa9a2d92f3207ab442130d6d3", "5593f4e62f00dea1ff49a50ebced2fe5");
    ("hot/8", "ce7e088312816025b53629121b5e9d7d", "37f2a7bdb89a3c0219bcd8b8a3893090");
    ("hot/9", "86487f2e5ae2fce3d5cd5a4586051094", "018b9d6985de41cb845e97f9f1f7542d");
    ("hot/10", "db9805f3adbfdf67ff4b51940cc6a057", "167a04fc885a0df95567cd154a73f744");
    ("hot/11", "06e419c4e2001c4b5f8520681da7de83", "1ed974bbc510bc0fa5f820b6a5604e13");
    ("hot/12", "6e361f49bc2ede2bdda1a495f7898ebb", "a07d64a97f1175d43411b99a7f47f0eb");
    ("hot/13", "fe0dbf4a8eac54691f5dc78df98303c0", "5dfc956e5c14a0d0b6e85902e84b9839");
    ("hot/14", "4837c6c7cb3bd8a30e5a85f9c1d661ef", "fe33c383db59713f6c12cde2c3372240");
    ("hot/15", "32cbac2e0a528786fcccf85b59b23a44", "eb441581b8757b83c9dbbdeaf5e04a25");
    ("hot/16", "252acc54ed3fd1477dda8786731d0e42", "4c0307cd57542ccb1d6ad1f7c58112b1");
    ("hot/17", "4fec2ba60ff0d37ec798838b32cbe7b4", "7186a54ca8d7b57088f0f4a76782c75e");
    ("hot/18", "07248fd0d6787a185953dc2ffaa53bcd", "f2e29093f9b43c845c6082dbdcbe2d03");
    ("hot/19", "647db117f491ab8293b73d09adbb30ef", "390d24894f295fd447fc144162382a14");
    ("hot/20", "448c1bc377eaef67130bb386824900fa", "7ba526a130f5d00e83eeb7005cddb19e");
    ("hot/21", "102ad12a77f9f65866f353f5df106964", "962aae4dd9de3f50f1674ad531826de0");
    ("hot/22", "8b4fdd3af642ed4eb0b265af9a06e22f", "0be1981311405a44013c5c794e36183e");
    ("hot/23", "c5aef78bec6cff092720cd990936aa75", "6e64d7f75b3a7a12cfce175ad1de81fd");
    ("hot/24", "1ea9a3e3e289500b2d3ca26add52d475", "1d41ec7b1c6a2732fc8623487287c030");
    ("hot/25", "1cfc9f36516dbc502c75d48fb9bdf39c", "ad9ef2a2815be46e86d533bfc6cc5338");
    ("hot/26", "9acd93d0e73c11459bd89a44c8e6a051", "6f1acecef215f3e3d2b3c3f2529e5642");
    ("hot/27", "4f2a2e3d3cca7b8a1100f990cdaf33f8", "151309304f302e22c33132f23c739f34");
    ("hot/28", "55ab7f325adf8c6a82a8f7ee419c8ca9", "a3f2ad45b8d9772996f615ecbda55fd9");
    ("hot/29", "bdfbdaa8d62e78d056d26ec9dc8b056f", "7ca29a852b0a59003c49bbf7c216ae0c");
    ("hot/30", "e65c7408b503edf86f7677d0e66c17cd", "00b6249de3501e2a9abadf53557ca60f");
    ("hot/31", "91e265b147c683092f285a3792abf611", "8813e80769620031bd0a8f017b9f85e0");
    ("hot/32", "ada62132fe4daf3932460985fe0792c7", "c4bb0d89af4f6f288fa91db1a887fb03");
    ("hot/33", "f5e2ea801196f2f5e1ec3876d7ede20f", "9644d01bc971edbbd08b4ce20cf56c84");
    ("hot/34", "c920fcf8bae4e327cc9c6a43fb392807", "20917f830f05b1eff33b6dfb29c1b395");
    ("hot/35", "2719b519e58d7d9df548efd08adac5af", "847e23142764d684d0088ad42e9ed360");
    ("hot/36", "affdcb34a81d2dcb3c8e3741799daa98", "5d5565a3745f00472187b681f5b8891a");
    ("hot/37", "e4f513181ed8738244fd4210d03a50ea", "62b0b34b6fc2a67af92a1c4cd90d6d1f");
    ("hot/38", "bdd2436687b67b2219945f02f016e3e0", "2bb6e5e4a28a6fe26c4e0299c7514411");
    ("hot/39", "020aeaf296782f2335e3c39601e34b6a", "2420e80c2e64f309ba1e7aa1cc29f6bf");
    ("hot/40", "b854f0eb2da1484afa62f694d8a357fa", "48d9b478f68ca7fa3a15d3211e4da8a9");
    ("hot/41", "bb608d90e17272c86a6e638e2d9a6bf4", "a322843feeb305c9b7786a4c3364fe0f");
    ("hot/42", "508ce24c191e0a9d1640918338ce0d4d", "fd0cb098c37f124a96cc92d6a8a54158");
    ("hot/43", "871814afdd229509a436eb4a9dc171ec", "afa5db37200eeeeee90198022d7873a8");
    ("hot/44", "e1ad390e1acd2a2431486ee2ffee9ce0", "5bfc991adfa7c50657b200fdb20de881");
    ("hot/45", "3c1b9a6ed2a9e843251c8e0434edf787", "fdeeef5626695c74b34dc9ac88820ef0");
    ("hot/46", "63f3224fcaaed59fabea715ed72ebae0", "bece8c3cd70135286515e618a61b77ca");
    ("hot/47", "2b14b88c3380f21bc62aa4873faef7b0", "7a5a5c30131c994bc174ad6bb630e5b5");
    ("hot/48", "7c19f2daabfe20093b270b648709b6df", "77e3daedd4a09ed06da2a3edb3a7cb37");
    ("hot/49", "bee5a302d341bc1710d942bdb2b9f47d", "25f0a6c493519da2e4f93f5b5a4ca58e");
    ("hot/50", "924feb6e5ebddb9b0802d6ff5ffc603c", "b9cdbd058caf72ba5a3975f54e997604");
    ("hot/51", "bc85e96bcaa2acff7075adad21059fd9", "9dbfb7531fb9023b1ad3365eca94ae8a");
    ("hot/52", "f482adcb9283f3658956eaad6971ef81", "6578bf7bfeca8c19c302bfea5f8b2752");
    ("hot/53", "7f21b9bd6e4c95e6c6c04abdedbeccc3", "a30575b2ad70aa3ff07c8cc058c920c5");
    ("hot/54", "d50410c944cab542e36f2c4161bd7206", "38d25d9c5fbe82a112398c6a662bf8fe");
    ("hot/55", "26a34f08c07f261687f5ed043e91efc6", "4cb2e2f03e036f13d32881886b36dd6b");
    ("hot/56", "f0bbd1712ed1f0dcf740a37f8ffffe71", "1596dd337bbcfef1e290a625bca88c6d");
    ("hot/57", "2d4572589c6411238baf899b32999130", "120b5505097696e81b94276bfa1a64c1");
    ("hot/58", "a200cb1bb1254a1d57dc654d53f3cb3d", "99e764f1a1159c8bfe13582db1fada54");
    ("hot/59", "88a39a92f3ee5195fb2c3318062aa346", "6ab79bad248114e7c884facfe0276929");
    ("hot/60", "5010d525da87dfc429aac233ba331746", "253ff4b9d24a9d31de1045506225f944");
    ("hot/61", "5ec3c6e1bd168cf8cd18cbb7fe064865", "6c102a8e6813e1136937b41b3a4115f8");
    ("hot/62", "ac399cb7f2c7596f1491425e474dcab4", "02337742b4777bce86a7319d75d67447");
    ("hot/63", "4d65f4e3b3eb1e42e58c6ac12d5e1046", "67144d421428281c84cd4e2d8dc40823");
    ("hot/64", "f26e8962481c30b4b172e28f3aec5c44", "6f334352cd100e17e47cc26aab13e6c8");
    ("hot/65", "90d952249649518704c160597a054728", "989a8a2e6e34576405ab576df6edd409");
    ("hot/66", "0cfe6710fb8593e05424a30694c6b6c9", "aec61b5a42bca91a4cc7ee1f084f1ba5");
    ("hot/67", "dfff1cae91d5d328a316434071dfef24", "659f02470ab8b0e1132e84d79dc3b1ca");
    ("hot/68", "8ed21a416ae07f1ba51c9c76d187c86a", "81aa183f7daef121f1f9fecbe4f44bc9");
    ("hot/69", "5d04a7aa7422b18a816ac79c142db3cf", "f0f974f41ed091310bafc6e341f31199");
    ("hot/70", "30ea3fdb344d501d649cd79a7e3184ea", "c7f7d87ff5c97f35a17fd2ae52d6db25");
    ("hot/71", "70cefb911143c29ee5a33d65eead035d", "ceba3578248d069e7129fb2114b561a7");
    ("churn/0", "4df43e12db573c4e702965d344bbc437", "24f48d0953a5529474da6115129c92d1");
    ("churn/1", "d89fbbc6b02691a475eae73323c3de89", "c51859f0ad782a0abef11b9f6045d618");
    ("churn/2", "f26cec2d8f6d90edca535614ad91b82d", "43255bd2bb106a728a5d7f48af1ac97b");
    ("churn/3", "00f67a030eb2b9036f366d6267705b24", "c527d2a023be12937a0dc920b42db22f");
    ("churn/4", "fd43420de37d2895e67ad69e101c87f1", "307c672573f2f44c110bccbd51f43138");
    ("churn/5", "38e85ef48c0e6fe95990d40a25217f95", "399b38d3db46fbdd6169a68ae61c20b4");
    ("churn/6", "ba5542cdd99c0557810bae0b518930b5", "067d9c679ff54f268681c620ffef0ad3");
    ("churn/7", "5ef0567aa9a2d92f3207ab442130d6d3", "5593f4e62f00dea1ff49a50ebced2fe5");
    ("churn/8", "ce7e088312816025b53629121b5e9d7d", "37f2a7bdb89a3c0219bcd8b8a3893090");
    ("churn/9", "86487f2e5ae2fce3d5cd5a4586051094", "018b9d6985de41cb845e97f9f1f7542d");
    ("churn/10", "db9805f3adbfdf67ff4b51940cc6a057", "167a04fc885a0df95567cd154a73f744");
    ("churn/11", "06e419c4e2001c4b5f8520681da7de83", "1ed974bbc510bc0fa5f820b6a5604e13");
    ("churn/12", "6e361f49bc2ede2bdda1a495f7898ebb", "a07d64a97f1175d43411b99a7f47f0eb");
    ("churn/13", "fe0dbf4a8eac54691f5dc78df98303c0", "5dfc956e5c14a0d0b6e85902e84b9839");
    ("churn/14", "4837c6c7cb3bd8a30e5a85f9c1d661ef", "fe33c383db59713f6c12cde2c3372240");
    ("churn/15", "32cbac2e0a528786fcccf85b59b23a44", "eb441581b8757b83c9dbbdeaf5e04a25");
    ("churn/16", "252acc54ed3fd1477dda8786731d0e42", "4c0307cd57542ccb1d6ad1f7c58112b1");
    ("churn/17", "4fec2ba60ff0d37ec798838b32cbe7b4", "7186a54ca8d7b57088f0f4a76782c75e");
    ("churn/18", "07248fd0d6787a185953dc2ffaa53bcd", "f2e29093f9b43c845c6082dbdcbe2d03");
    ("churn/19", "647db117f491ab8293b73d09adbb30ef", "390d24894f295fd447fc144162382a14");
    ("churn/20", "448c1bc377eaef67130bb386824900fa", "7ba526a130f5d00e83eeb7005cddb19e");
    ("churn/21", "102ad12a77f9f65866f353f5df106964", "962aae4dd9de3f50f1674ad531826de0");
    ("churn/22", "8b4fdd3af642ed4eb0b265af9a06e22f", "0be1981311405a44013c5c794e36183e");
    ("churn/23", "c5aef78bec6cff092720cd990936aa75", "6e64d7f75b3a7a12cfce175ad1de81fd");
    ("churn/24", "1ea9a3e3e289500b2d3ca26add52d475", "1d41ec7b1c6a2732fc8623487287c030");
    ("churn/25", "1cfc9f36516dbc502c75d48fb9bdf39c", "ad9ef2a2815be46e86d533bfc6cc5338");
    ("churn/26", "9acd93d0e73c11459bd89a44c8e6a051", "6f1acecef215f3e3d2b3c3f2529e5642");
    ("churn/27", "4f2a2e3d3cca7b8a1100f990cdaf33f8", "151309304f302e22c33132f23c739f34");
    ("churn/28", "55ab7f325adf8c6a82a8f7ee419c8ca9", "a3f2ad45b8d9772996f615ecbda55fd9");
    ("churn/29", "bdfbdaa8d62e78d056d26ec9dc8b056f", "7ca29a852b0a59003c49bbf7c216ae0c");
    ("churn/30", "e65c7408b503edf86f7677d0e66c17cd", "00b6249de3501e2a9abadf53557ca60f");
    ("churn/31", "91e265b147c683092f285a3792abf611", "8813e80769620031bd0a8f017b9f85e0");
    ("churn/32", "ada62132fe4daf3932460985fe0792c7", "c4bb0d89af4f6f288fa91db1a887fb03");
    ("churn/33", "f5e2ea801196f2f5e1ec3876d7ede20f", "9644d01bc971edbbd08b4ce20cf56c84");
    ("churn/34", "c920fcf8bae4e327cc9c6a43fb392807", "20917f830f05b1eff33b6dfb29c1b395");
    ("churn/35", "2719b519e58d7d9df548efd08adac5af", "847e23142764d684d0088ad42e9ed360");
    ("churn/36", "affdcb34a81d2dcb3c8e3741799daa98", "5d5565a3745f00472187b681f5b8891a");
    ("churn/37", "e4f513181ed8738244fd4210d03a50ea", "62b0b34b6fc2a67af92a1c4cd90d6d1f");
    ("churn/38", "bdd2436687b67b2219945f02f016e3e0", "2bb6e5e4a28a6fe26c4e0299c7514411");
    ("churn/39", "020aeaf296782f2335e3c39601e34b6a", "2420e80c2e64f309ba1e7aa1cc29f6bf");
    ("churn/40", "b854f0eb2da1484afa62f694d8a357fa", "48d9b478f68ca7fa3a15d3211e4da8a9");
    ("churn/41", "bb608d90e17272c86a6e638e2d9a6bf4", "a322843feeb305c9b7786a4c3364fe0f");
    ("churn/42", "508ce24c191e0a9d1640918338ce0d4d", "fd0cb098c37f124a96cc92d6a8a54158");
    ("churn/43", "871814afdd229509a436eb4a9dc171ec", "afa5db37200eeeeee90198022d7873a8");
    ("churn/44", "e1ad390e1acd2a2431486ee2ffee9ce0", "5bfc991adfa7c50657b200fdb20de881");
    ("churn/45", "3c1b9a6ed2a9e843251c8e0434edf787", "fdeeef5626695c74b34dc9ac88820ef0");
    ("churn/46", "63f3224fcaaed59fabea715ed72ebae0", "bece8c3cd70135286515e618a61b77ca");
    ("churn/47", "2b14b88c3380f21bc62aa4873faef7b0", "7a5a5c30131c994bc174ad6bb630e5b5");
    ("churn/48", "7c19f2daabfe20093b270b648709b6df", "77e3daedd4a09ed06da2a3edb3a7cb37");
    ("churn/49", "bee5a302d341bc1710d942bdb2b9f47d", "25f0a6c493519da2e4f93f5b5a4ca58e");
    ("churn/50", "b6240fc05c7cd5dbb67fd724a354247b", "02ae6d14305c0e4b1635a858a775fb97");
    ("churn/51", "63c5122e216a0f869e5429e0a12e8476", "1ce7668772975e2025fed6fc10667833");
    ("churn/52", "924feb6e5ebddb9b0802d6ff5ffc603c", "b9cdbd058caf72ba5a3975f54e997604");
    ("churn/53", "bc85e96bcaa2acff7075adad21059fd9", "9dbfb7531fb9023b1ad3365eca94ae8a");
    ("churn/54", "0c3e1fa15cdfaf6331045797c18989c7", "1606af5b8cf4f79e439abc375182a07f");
    ("churn/55", "4f0bf5a1abe4c5e2bbfc82c31740a1f8", "df9b5c6f007c820ee1207ab067e2874c");
    ("churn/56", "f482adcb9283f3658956eaad6971ef81", "6578bf7bfeca8c19c302bfea5f8b2752");
    ("churn/57", "7f21b9bd6e4c95e6c6c04abdedbeccc3", "a30575b2ad70aa3ff07c8cc058c920c5");
    ("churn/58", "356a6fb1e126df6df0f7d6b6ef433fa1", "cec9916e50f132b6bbd9866de0093c5d");
    ("churn/59", "f395e955f62043b5e38cd3ba9ba55971", "d7f97944b09a7b0e915f7f4f94ca1a7c");
    ("churn/60", "d50410c944cab542e36f2c4161bd7206", "38d25d9c5fbe82a112398c6a662bf8fe");
    ("churn/61", "26a34f08c07f261687f5ed043e91efc6", "4cb2e2f03e036f13d32881886b36dd6b");
    ("churn/62", "83b245f9b65cf06fc6d6223d516a5122", "d5c47aaafa1d8136e70dd738e751d22c");
    ("churn/63", "3e118fc710dd3ace22bd61f4374b5853", "43029c90c8b76e5fe62cf675d8095812");
    ("churn/64", "f0bbd1712ed1f0dcf740a37f8ffffe71", "1596dd337bbcfef1e290a625bca88c6d");
    ("churn/65", "2d4572589c6411238baf899b32999130", "120b5505097696e81b94276bfa1a64c1");
    ("churn/66", "2740517b6d009bbcb70a76cfb172ae43", "782893eb5ec33110b42faacb9a8fc803");
    ("churn/67", "9decc1186e9a153317218900921e426c", "805c06642887536f3280177437a23184");
    ("churn/68", "a200cb1bb1254a1d57dc654d53f3cb3d", "99e764f1a1159c8bfe13582db1fada54");
    ("churn/69", "88a39a92f3ee5195fb2c3318062aa346", "6ab79bad248114e7c884facfe0276929");
    ("churn/70", "b495a60a46278eea775827d06bf31b1c", "c1e2422ceca77445fdafe957b5adfcf6");
    ("churn/71", "3944df1a731f66f35fc5dd99c774b09b", "5e43fa6b47951a3d14fddf7908d2c44b");
    ("churn/72", "5010d525da87dfc429aac233ba331746", "253ff4b9d24a9d31de1045506225f944");
    ("churn/73", "5ec3c6e1bd168cf8cd18cbb7fe064865", "6c102a8e6813e1136937b41b3a4115f8");
    ("churn/74", "eab500ea8c9fb0b37ead4f4f4d47e9a2", "3d0f7d1dcaa274ad993576058b680795");
    ("churn/75", "1bd4a9d866e6ff610f840e0ad6de348f", "21b2e88ad9b3e92a18fc50edbe7e759b");
    ("churn/76", "ac399cb7f2c7596f1491425e474dcab4", "02337742b4777bce86a7319d75d67447");
    ("churn/77", "4d65f4e3b3eb1e42e58c6ac12d5e1046", "67144d421428281c84cd4e2d8dc40823");
    ("churn/78", "8af2bab63f8a6dc978c5dfb71341ab44", "1f979b0b0418ef730886727b5315c64d");
    ("churn/79", "5f6e145ea6724e546697e75c9c1cd4b5", "9268987ed4b78ba3fbf7b8821715302f");
    ("churn/80", "f26e8962481c30b4b172e28f3aec5c44", "6f334352cd100e17e47cc26aab13e6c8");
    ("churn/81", "90d952249649518704c160597a054728", "989a8a2e6e34576405ab576df6edd409");
    ("churn/82", "d724118cc39664d46800a303d0673820", "8c5509b9dae8063261418fc71fb90eae");
    ("churn/83", "0b98d1c30866b7bd3fc1003bf397432e", "e7215fc40d08108b1ec682da4e03e53e");
    ("churn/84", "0cfe6710fb8593e05424a30694c6b6c9", "aec61b5a42bca91a4cc7ee1f084f1ba5");
    ("churn/85", "dfff1cae91d5d328a316434071dfef24", "659f02470ab8b0e1132e84d79dc3b1ca");
    ("churn/86", "5b037e3d66959d7b638c23617e410e99", "9e9ba07df8f20f6242b8a239cba38e13");
    ("churn/87", "84aaddb7c0a0dbf8b6ec83a376060bc3", "30305f937efd64d8d1963214ff8d30bd");
    ("churn/88", "8ed21a416ae07f1ba51c9c76d187c86a", "81aa183f7daef121f1f9fecbe4f44bc9");
    ("churn/89", "5d04a7aa7422b18a816ac79c142db3cf", "f0f974f41ed091310bafc6e341f31199");
    ("churn/90", "3b29d0acfc5ae1bd3d19e6f6ac2ddaff", "6667e72f3ee7e18605ecf404f6b75873");
    ("churn/91", "7fc1f6b63b1a2c98ddd4239dd38ad03b", "e87236d94618698971cc96176b0c2574");
    ("churn/92", "30ea3fdb344d501d649cd79a7e3184ea", "c7f7d87ff5c97f35a17fd2ae52d6db25");
    ("churn/93", "70cefb911143c29ee5a33d65eead035d", "ceba3578248d069e7129fb2114b561a7");
    ("churn/94", "dae0cac77c21abf39b790f4b0c79161e", "cc60d4463d7f22d48c84ac241fa9315a");
    ("churn/95", "8fd458b54bd8e5eed5c9e79c600bd552", "398935283ea29d030dfb50babb2ab767");
    ("churn/96", "6f1d2fae32e67d05938769dab141bb52", "6171a7d6baf6f167be085d5d0352094b");
    ("churn/97", "b3eb9bbee67f81f0dac814f0b8475b96", "5a638c6d6cd82413f68291b2d76737bd");
    ("churn/98", "fb947c70417a497ced8e1e984183eff2", "c8c9350e302e30ae59aa9d70d58a7677");
    ("churn/99", "6a00970de34ebd192770c97cc5058347", "d580d6399cea16f1278def8e050d7aae");
    ("churn/100", "96fe91e5093e62edb8de57b1fb218333", "7e1fd42d5403f7973ba1f7a5004cfcda");
    ("churn/101", "28db5f454d1b87557f2fbd3f3b9003b6", "fae60b4306529fb66f047a1e8c517132");
    ("churn/102", "860f9304dd11cd7bbe5f78794b23aea5", "595b2fd281b47f70ca88153231f26663");
    ("churn/103", "4b7e05e2b6bba0bd7afa2f6ad01acddd", "4d7f0ec072c2c97c3928ba9f03e89cc8");
    ("churn/104", "6e14e1bcfa44a03dac67021dda0ae7d2", "6fc84394de085f452fff861c3831eb86");
    ("churn/105", "47e46ab5b54bfe3333802719def46963", "8445a706b6a9d92b936b4d7ea6d68ed6");
    ("churn/106", "5cb8aa2d6fd26a98becfc5b51510a751", "edecdc0f5d445c05bb417c8d387b837d");
    ("churn/107", "78cd1330bd1a11ab70cc13d10c6f783f", "1390c98d8b748e191127a65dcecc8634");
    ("churn/108", "60d350e30bba4a33c7a295774275d69a", "12fa2b3eea908af9035e2112089fe11b");
    ("churn/109", "50b3f24757deaaa8775f459d700d052f", "9b0a0a5057bb3827bc1390f1b6022fb8");
    ("churn/110", "f962e5dc388187c679baf63276186634", "02637e1a17cd123b2cf37da02245238b");
    ("churn/111", "26947c28a1c6a3732ceda485012ca6f4", "543cd77eee9f874016cc2ba7c718db0f");
    ("churn/112", "d9e38d73679828334c3460e0d84783b4", "d70db4187c0f74fcde529f254d133ffe");
    ("churn/113", "22d6b147fc2c467df3df2844894322e6", "481062ea74c5c55b43091b764306595d");
    ("churn/114", "9bae53f50e24e8ac9ccadb7da9c6f69d", "d4a6809bd2e985e855970a0d5601d771");
    ("churn/115", "51e5c38ea23025a04dc6725db2536319", "d76e41429d524d7335b462bdd20b72a0");
    ("churn/116", "59e48f213fddd1f04109acb3ac6fcf1f", "39a19bbafcf43cfdb933883ebcec83bb");
    ("churn/117", "46e6767d8ecc0cb526cab258dd77c640", "9929a661d7faaa132a8dc24c18d27cd1");
    ("churn/118", "36ad33d15be385afe494a930facea192", "e76f0750141bcf0a98877a66b0ef7aae");
    ("churn/119", "29f6ddae33144b311327925e00d044ac", "229e30a77c0d4fce355730d98026414d");
    ("churn/120", "ea899bb54fc27baa2e08892e32e30d5c", "4772af4e858888008a7c3b01a61a343a");
    ("churn/121", "9d3beff84f1e65f720457a4a0999d989", "8e6eecb6da717c298ee36bfdead123ec");
    ("churn/122", "a3f2c5a2cc72c465f645642f6f9dd497", "45286282b2e4e589d3a8cf14187e3b47");
    ("churn/123", "2b79eb731865d254777f68b543cc2407", "b79bb073c4f7a6adfeae462c70e7fedb");
    ("churn/124", "3d377ce42754a8e184553d88b630e128", "fe54ebec95c885f3997d8ecb16a03fcc");
    ("churn/125", "14773b16f95b35de2993b8c0b1bb5a73", "f7140f36a2199d77cdbbfa880881e742");
    ("churn/126", "aa26169a9aad77a616cf50b9a608a235", "1b49fdf2a5fb6e728606087c2fdc8b87");
    ("churn/127", "b5e6d1039c23ad53e773160573f20077", "2bccf01bd1f1b6f7e386676c2678d458");
    ("churn/128", "9dca58cf100deea1270701e81e6f7f37", "75d8ab937e331d67a782e4d7facfb639");
    ("churn/129", "08861f96c5a1220b4b063bb434ecdbca", "c0f92c2839ee871259855bbeb412a4ca");
    ("churn/130", "6f293603fb69c05574e929f6980a4a71", "9ad9c4e768f949f48ce684253e73e715");
    ("churn/131", "5cba833aff6be6e80e74f4e5c5ce912d", "f4637934569ad79094c2b814e4707e15");
    ("churn/132", "e11e907a9f6314c9702c6902180c9eae", "b9690eedf79fcdb91c8309a8d20a540c");
    ("churn/133", "794c877663e37efea256a412fb28d6d3", "846a0bcba71257e93fff011519746f44");
    ("churn/134", "5a534c6fe25121cf38fdb2ff05c7dc90", "9eb4efa00475a2c3c6dfcbfc95afbc25");
    ("churn/135", "ccef31841b2ccad57b589812918ca21f", "ce05dd3a8ce80eb8b623a2b2745b9bc3");
    ("churn/136", "da18586939b430f00345aea1ac02a230", "5c48fbe40ed173dad8dd63da0dd44b33");
    ("churn/137", "50b80f7968ae61563682359a19f2d35a", "5ab7c2d047a42c512a4336b231b63a4c");
    ("churn/138", "4fb7e6ff30d0a017bf9264a1c26bf10d", "b2c22675c3f146276a66dd040448f87f");
    ("churn/139", "a20f231bb9b4f4cbd22d2604784a0969", "819e0af866b3f48519ca7ecc0c973c14");
    ("churn/140", "79a01f389fa9668e4c5b50759ceee350", "591a73882c3cd9c955c655827cc80b19");
    ("churn/141", "9e6eabfede7365a82ce2583d0470b7bf", "a4ed3f94179d5757d36bfce346b8a811");
    ("churn/142", "c0847eb26fc9bfb7396cea551d5bf598", "5127993585bab772001844f0302b4fca");
    ("churn/143", "d835161652de3011ed13cbeeab431115", "090f4729b53b7083ff3dbfe863404822");
    ("churn/144", "c7a7c8b8319f072db9084215db289cb9", "8592fcf6ff9de2926134d40669c8948d");
    ("churn/145", "67fd71709d4f921db1eb2c02784bede2", "a8a1207b488cd7464d3c946a6a1ae131");
    ("churn/146", "8d0447f665b36000377bb5af580b5628", "b41c80d13df3ae6c1a305682a76f7ae3");
    ("churn/147", "721e9bf61592d0b0f2abd1f3111a04d2", "aa1c5ba836bf68f23c12b3f1b713553e");
    ("churn/148", "b44837b608762feeaee45fa8deafa5b8", "89a81563f537e5f19dfb6de27f5222f0");
    ("churn/149", "1856db62c211ce887b2f5435967bb79f", "4cef9c99274f3eee1dcdbeecc46701ee");
    ("churn/150", "6a30d90729bcee8f53f33014e6e0c0f5", "b2460862df1bdafa23ac6f76207f5945");
    ("churn/151", "eab1099c38d8d29367abd098b529845e", "ca6e3b756a99b6b26ba8fb4e98fe18e4");
    ("churn/152", "0735243a6a570c9f38fe6c87e85a25a3", "13ad0c96261a961fdc93eab48d3b6027");
    ("churn/153", "5aa83fa29db9a87da0cfa9ec990874e5", "d3891bf916c16bc7b1f3d4a95865dbee");
    ("churn/154", "1073b4f3dc06ff4b0a779cf23fe4abcf", "d78397326bc5bbf85c650b7b0df4bea8");
    ("churn/155", "9b448b5c2f960a1ce6108247fe26558f", "9aa067a95da63a435a64951529660a0e");
    ("churn/156", "636c4aafdc41997b89e521210bd0f9cb", "694af995a833e83254b6e42120ed813e");
    ("churn/157", "59ab99e7d80230592580a64d47f86f2c", "03e189f76b40beef3e8187fa5a6b3e3a");
    ("churn/158", "3c1356959e8304224e885c373776a30d", "d898bef01dc66a9a902ecd43d5c2452a");
    ("churn/159", "677e6ede4191fd31b23d38d9336a25a0", "7ee002d6575af8493a1e8644989a26be");
    ("churn/160", "a427edbf0ad5c757110e13feff0fd786", "f2542ecfa4c45c8111749ffecdfde4b0");
    ("churn/161", "1e1a6525a86b522c808dfd7a2d779482", "9e5ff04778735c691c0a1a30990b617f");
    ("churn/162", "05253c426708191ae5ce9c41d01323bb", "0f71c04a52e51777ed7f9dcc0d316df8");
    ("churn/163", "842c83bcd65cc3b3c82a28ff7478ae97", "56a287556f62dbaa4dcb4ed26717ae5b");
    ("churn/164", "dbb3e75afdfa5910dab1852e5193c63c", "77275b0f3dd7c1954549ae584f451d46");
    ("churn/165", "bc105487a735b4eb5d0ce870db016e6b", "441a6cf92e4f609b9ea5d8de3f300e90");
    ("churn/166", "da348edee15220665ac2ebe1933408c7", "b4cfc84f8c39dfe6a9779a7f75c24259");
    ("churn/167", "11ec40cb5a080bc3f25ae1e3f67f6a11", "f0e1d2a52abba2856a7c998067cce674");
    ("churn/168", "09260a09fa21c0256403d23471293273", "019cd930300e8e20b4522fc547b53155");
    ("churn/169", "99e62e1e928c4302bff7a7e415a8d233", "a87f5237aa221285362e07c86eb58413");
    ("churn/170", "9931f9b0fe2491c062cf891bfa460ed4", "7922486bc962b1aaf6937337c9b2969a");
    ("churn/171", "d2268b176b774e66ee87fa0ce3501c56", "eca580c7ddb3956ad89a792992a41b02");
    ("churn/172", "52dd9bead07b6b1f894f111304b2cd8b", "3f380b9a4cc06824f8ba0ac15c6e293f");
    ("churn/173", "6942e07681f8f682f6825f779ee62085", "354780ab925a8c958d62576a886d67c8");
    ("churn/174", "7507fb7313c16fd0de2f0ff0574d9a8f", "22b0bc0ada6cccbcb045fbb3fc80d9d2");
    ("churn/175", "ee44c7bdc2f826155bc8ab93a6534a4e", "9901c513402c1eb700d61a6ce0826507");
    ("churn/176", "863d686c6c3497fb73401d03c2f3a83e", "668d80a10a11ceb6376e4f12bcc475c8");
    ("churn/177", "ce347800076de06966c18a5721989da4", "93791f87b0f3b97e43d39f49e81c8e63");
    ("churn/178", "e944fe2994e165bc9cf7ffa9f08587c8", "6d6dd1743e6ddec2a88d6d03ac96f5db");
    ("churn/179", "9276eb7a555b4739197651de7632c28b", "6685294ef403a36f8ba79230d08f2763");
    ("churn/180", "cc3056468a4f1cb4f21a1fe3d48f4abe", "c7685bd99873b095f5223a5780d21173");
    ("churn/181", "c55cbfc646e4a63d1aaf57ad57ff6749", "e5d716f30c17b73187dd03a5fa231e52");
    ("churn/182", "6a09bb6efb094c8c164913b71e72bfa2", "f262d927f52f5ba68f33a86ec0e98669");
    ("churn/183", "dc5689c816fc851e8b16dd0d27c56e4e", "908e8c930d06a199d6e6ab250694f40f");
    ("churn/184", "4ecca82364a6058b332c5c3de043fddb", "5dde2d9a3621e5d6660aa7be5498ca7b");
    ("churn/185", "da8aa79f5df097580f66d832a4e2807b", "a36847f95a296d3325baf6e0d7292275");
    ("churn/186", "729be19cbf6ae8ad4f5334791974ea1e", "a8113170c343c3199ef86d3c21a84f8e");
    ("churn/187", "a79903628253d861399bdc6c9cab676d", "a4022f62ce6c75d169e17e466d670af1");
    ("churn/188", "c79a17a90c024d52ecd00230de68150c", "a085301f1a0f4943bc895db8d2f7608f");
    ("churn/189", "7d37abc9c3091846d555789d544f0190", "30f3d793a599ae8984b9da3fd6ef7e32");
    ("churn/190", "73857a70c919b6b8b0060ce802a0d414", "5e6b4a09769a5e23f58945916cf6bce3");
    ("churn/191", "b529d7ecfae93fc2ba4a981fa7e6fba3", "8e6c773a0f4f600003c1f369856f5fda");
    ("churn/192", "35d397fd1852bfb1507344c7819344e5", "4b1275ffa55d847f0c82f361f9fa3de9");
    ("churn/193", "210a7add22cc736a82ffe9e8ee7c8c4a", "6b0ad15f56dbd6d28c8161c9b9f44892");
    ("churn/194", "9f34c986c222adf28f8f2d22340abe0e", "fd3bf367a2f084e2bda36d43ccbd4028");
    ("churn/195", "308207150945cdee37ee13f0410d84f9", "cebf490d3b4cc6e119a3b41a9dfcf845");
    ("churn/196", "2a1da66ef2c2fc067df04e100d9b348d", "d3169755e71c8d79e885c2c759813e58");
    ("churn/197", "2af244b68738525dc026ea5f21be8a41", "96319c466e9ede3dab4ae327a51feee2");
    ("churn/198", "617372a52373adef89ebefb9236a1ee7", "f26cd389ba5dacd5a60c83aa0dc8351c");
    ("churn/199", "8cf725180fd69a4302f3947064ee1ec9", "905aaac7f9732336f43dbf05b8b9eb76");
    ("arms/0", "8150dbc64a441df437dc3c41ce47d067", "4b60b973fb79e8a55cd24bea53156f2e");
    ("arms/1", "1ec0eeac2fb9488976910ef4e6d5a171", "ecfb31109d1d718760c4045887df3eee");
    ("arms/2", "7301efa39a5c735301980404c4d3620a", "1ea82bb7b42cf3a144b908a7ae9902cd");
    ("arms/3", "04ef23a17ca2f42174927aaf7a5e640d", "3789b03101deb6fa88e09acd396ac903");
    ("arms/4", "918bce534e3cdae6b75ece2c83c80dcf", "a70303df8743acb0222c165677e90f17");
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
